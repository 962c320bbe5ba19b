package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"easytracker"
)

// tutor is tutor-py, the paper's Listing 1 over generated MiniPy programs:
// LoadProgram, Start, then State → json.Marshal → Step for every line. With
// served set it is served-py: the same script and corpus through
// easytracker.Connect to an in-process server, one connection per session.
type tutor struct {
	ps   []*program
	want []string

	// states keeps the State JSON of traced sessions, up to keptStates,
	// for the decode measurement.
	states [][]byte

	served bool
	srv    *easytracker.Server
	done   chan error
	addr   string
}

// tutorFams are the families one script's calls belong to, local or remote.
type tutorFams struct{ load, start, state, step, terminate fam }

var (
	localFams  = tutorFams{famPyLoad, famPyStart, famPyState, famPyStep, famPyTerminate}
	remoteFams = tutorFams{famRemoteLoad, famRemoteStart, famRemoteState, famRemoteStep, famRemoteTerminate}
)

func (w *tutor) sessions() int       { return len(w.ps) }
func (w *tutor) stdout(i int) string { return w.want[i] }

func (w *tutor) oracle(b *bench) (err error) {
	if w.want, err = stdouts(w.ps, runPy); err != nil || !w.served {
		return err
	}
	// The remote contract: a served session's transcript equals the local
	// one, so the local digests are served-py's expected digests.
	local := &tutor{ps: w.ps, want: w.want}
	_, ds := b.pass(local, nil)
	b.want = slices.Clone(ds)
	return nil
}

func (w *tutor) setUp(b *bench) error {
	if !w.served {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = easytracker.NewServer()
	w.done = make(chan error, 1)
	w.addr = ln.Addr().String()
	go func() { w.done <- w.srv.Serve(ln) }()
	return nil
}

func (w *tutor) tearDown() {
	if w.srv == nil {
		return
	}
	w.srv.Close()
	<-w.done
	w.srv = nil
}

// open connects (served-py) and loads program i.
func (w *tutor) open(s *sess, i int) (easytracker.Tracker, tutorFams, error) {
	p := w.ps[i]
	opts := []easytracker.LoadOption{easytracker.WithSource(p.Src), easytracker.WithStdout(&s.out)}
	if !w.served {
		sp := s.begin(famPyLoad)
		tr, err := easytracker.New("minipy")
		if err == nil {
			err = tr.LoadProgram(p.Name, opts...)
		}
		return tr, localFams, s.end(sp, err)
	}
	sp := s.begin(famRemoteConnect)
	rt, err := easytracker.Connect(w.addr, "minipy")
	if s.end(sp, err) != nil {
		return nil, remoteFams, err
	}
	err = s.do(famRemoteLoad, func() error { return rt.LoadProgram(p.Name, opts...) })
	if err != nil {
		rt.Close()
	}
	return rt, remoteFams, err
}

// close ends a session; Terminate also closes a remote connection.
func closeTracker(s *sess, tr easytracker.Tracker, f fam) {
	s.do(f, func() error {
		err := tr.Terminate()
		if rt, ok := tr.(*easytracker.RemoteTracker); ok {
			err = errors.Join(err, rt.Close())
		}
		return err
	})
}

func (w *tutor) session(s *sess, i int) error {
	tr, f, err := w.open(s, i)
	if err != nil {
		return err
	}
	defer closeTracker(s, tr, f.terminate)
	if err := s.do(f.start, tr.Start); err != nil {
		return err
	}
	sp, ok := easytracker.As[easytracker.StateProvider](tr)
	if !ok {
		return errors.New("tracker provides no State")
	}
	for {
		if _, done := tr.ExitCode(); done {
			break
		}
		t0 := time.Now()
		c := s.begin(f.state)
		st, err := sp.State()
		if s.end(c, err) != nil {
			return err
		}
		c = s.begin(famJSONEncode)
		js, err := json.Marshal(st)
		if s.end(c, err) != nil {
			return err
		}
		if err := s.do(f.step, tr.Step); err != nil {
			return err
		}
		s.b.observe(t0)
		s.digest(js, "")
		if s.b.tr != nil && len(w.states) < keptStates {
			w.states = append(w.states, js)
		}
	}
	code, _ := tr.ExitCode()
	s.digest(nil, "exit", code)
	return nil
}

// keptStates bounds the States a traced run keeps for decoding.
const keptStates = 4096

// layers compiles the corpus on minipy and decodes the kept States with
// json.Unmarshal. served-py then runs one local pass of the same script:
// the wire's cost per call is the remote busy time per State and Step call
// minus the local busy time per call.
func (w *tutor) layers(b *bench, _ uint64, lm map[string]float64) error {
	t := b.tr
	if err := compilePy(t, w.ps); err != nil {
		return err
	}
	n := 0
	for _, js := range w.states {
		var back easytracker.State
		sp := t.begin(famJSONDecode, -1)
		err := json.Unmarshal(js, &back)
		if t.end(sp, err); err != nil {
			return err
		}
		n += len(js)
	}
	lm["core.state_json_bytes"] = float64(n) / float64(len(w.states))
	if !w.served {
		return nil
	}
	b.pass(&tutor{ps: w.ps, want: w.want}, b.want)
	st := t.stats()
	perCall := func(state, step fam) float64 {
		return float64(st[state].busy+st[step].busy) / float64(len(st[state].durs)+len(st[step].durs)) / 1e3
	}
	lm["remote.wire_us_per_call"] = perCall(famRemoteState, famRemoteStep) - perCall(famPyState, famPyStep)
	return nil
}

// hold stops session i after its fifth line.
func (w *tutor) hold(s *sess, i int) (func(), error) {
	tr, f, err := w.open(s, i)
	if err != nil {
		return nil, err
	}
	release := func() { closeTracker(s, tr, f.terminate) }
	err = tr.Start()
	for k := 0; k < 5 && err == nil; k++ {
		err = tr.Step()
	}
	if err == nil {
		if sp, ok := easytracker.As[easytracker.StateProvider](tr); ok {
			_, err = sp.State()
		}
	}
	if _, done := tr.ExitCode(); done && err == nil {
		err = fmt.Errorf("%s exited before its hold point", w.ps[i].Name)
	}
	if err != nil {
		release()
		return nil, err
	}
	return release, nil
}
