package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"easytracker"
	"easytracker/internal/pt"
	"easytracker/internal/ttd"
)

// ttScript is the time-travel script of probe-py's traced run: three sessions
// per program, in a fixed order — a live session recording with
// WithRecording(0), then replays of the v1 and v2 trace bytes made
// beforehand — each running the same seeded navigation script. Every
// navigation call is followed by State; the span of the backing's family
// covers both.
type ttScript struct {
	ps   []*program
	want []string
	nav  [][]navOp

	// v1 and v2 are each program's trace bytes, made by encode.
	v1, v2 [][]byte
	// steps are the recorded steps of each v1 trace.
	steps []int
}

// navOp is one navigation call: seek to a fraction of the recording, step
// back, next back, resume back, or ask when expr last changed.
type navOp struct {
	op   byte
	frac float64
	expr string
}

const (
	ttLive = iota
	ttV1
	ttV2
	ttBackings
)

// ttFams are each backing's families: seek, stepback, resumeback,
// lastchange. NextBack counts as a stepback.
var ttFams = [ttBackings][4]fam{
	ttLive: {famRecSeek, famRecStepBack, famRecResumeBack, famRecLastChange},
	ttV1:   {famV1Seek, famV1StepBack, famV1ResumeBack, famV1LastChange},
	ttV2:   {famV2Seek, famV2StepBack, famV2ResumeBack, famV2LastChange},
}

func newTT(seed uint64) *ttScript {
	w := &ttScript{ps: genTimeTravel(seed)}
	r := newRand(seed, 5)
	frac := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	for range w.ps {
		w.nav = append(w.nav, []navOp{
			{op: 's', frac: frac(0.5, 0.9)},
			{op: 'b'}, {op: 'b'}, {op: 'b'},
			{op: 'n'}, {op: 'n'},
			{op: 'l', expr: "::log"},
			{op: 's', frac: frac(0.6, 0.95)},
			{op: 'r'}, {op: 'r'},
			{op: 's', frac: frac(0.3, 0.7)},
			{op: 'b'},
			{op: 'l', expr: "::best"},
		})
	}
	return w
}

func (w *ttScript) sessions() int { return ttBackings * len(w.ps) }

// stdout: only the live session runs the inferior; replays print nothing.
func (w *ttScript) stdout(i int) string {
	if i%ttBackings == ttLive {
		return w.want[i/ttBackings]
	}
	return ""
}

// timeTravel records the time-travel corpus, encodes each recording as v1
// and v2 trace bytes, and runs the three backings' sessions once, traced.
func timeTravel(b *bench, seed uint64, lm map[string]float64) error {
	w := newTT(seed)
	var err error
	if w.want, err = stdouts(w.ps, runPy); err != nil {
		return err
	}
	if err := w.encode(b); err != nil {
		return err
	}
	// The live recording steps at a finer grain than pt.Record, so only the
	// two replays of one recording can be compared.
	_, ds := b.pass(w, nil)
	mismatches := 0
	for i := range w.ps {
		if ds[ttBackings*i+ttV1] != ds[ttBackings*i+ttV2] {
			mismatches++
		}
	}
	lm["ttd.replay_mismatches"] = float64(mismatches)
	var v1, v2, steps int
	for i := range w.ps {
		v1, v2, steps = v1+len(w.v1[i]), v2+len(w.v2[i]), steps+w.steps[i]
	}
	lm["pt.v1_bytes_per_step"] = float64(v1) / float64(steps)
	lm["pt.v2_bytes_per_step"] = float64(v2) / float64(steps)
	return nil
}

// encode records every program once and encodes the recording as v1
// (pt.Record + Encode) and v2 (ttd.FromTrace + Encode) trace bytes.
func (w *ttScript) encode(b *bench) error {
	n := len(w.ps)
	w.v1, w.v2, w.steps = make([][]byte, n), make([][]byte, n), make([]int, n)
	for i, p := range w.ps {
		if err := w.record(b, i, p); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return nil
}

func (w *ttScript) record(b *bench, i int, p *program) error {
	tr, err := easytracker.New("minipy")
	if err != nil {
		return err
	}
	defer tr.Terminate()
	var out strings.Builder
	if err := tr.LoadProgram(p.Name, easytracker.WithSource(p.Src), easytracker.WithStdout(&out)); err != nil {
		return err
	}
	sp := b.tr.begin(famPtRecord, -1)
	trace, err := pt.Record(tr, &out, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	if err == nil {
		w.v1[i], err = trace.Encode()
	}
	if b.tr.end(sp, err); err != nil {
		return err
	}
	if out.String() != w.want[i] {
		return fmt.Errorf("recorded stdout %q, want %q", out.String(), w.want[i])
	}
	w.steps[i] = len(trace.Steps)
	sp = b.tr.begin(famTtdFromTrace, -1)
	store, err := ttd.FromTrace(trace, 0)
	if err == nil {
		w.v2[i], err = store.Trace().Encode()
	}
	b.tr.end(sp, err)
	return err
}

// open starts session i: the live session records to the end of the
// program; a replay loads its trace bytes.
func (w *ttScript) open(s *sess, i int) (easytracker.Tracker, error) {
	p, kind := w.ps[i/ttBackings], i%ttBackings
	if kind == ttLive {
		sp := s.begin(famRecLoad)
		tr, err := easytracker.New("minipy")
		if err == nil {
			err = tr.LoadProgram(p.Name, easytracker.WithSource(p.Src), easytracker.WithStdout(&s.out), easytracker.WithRecording(0))
		}
		if s.end(sp, err) != nil {
			return nil, err
		}
		if err := s.do(famPyStart, tr.Start); err != nil {
			return tr, err
		}
		if err := s.do(famPyArm, func() error { return tr.Watch(p.Watches[0]) }); err != nil {
			return tr, err
		}
		for {
			if err := s.do(famPyRecord, tr.Resume); err != nil {
				return tr, err
			}
			if _, done := tr.ExitCode(); done {
				return tr, nil
			}
		}
	}
	data, load := w.v1[i/ttBackings], famTTLoadV1
	if kind == ttV2 {
		data, load = w.v2[i/ttBackings], famTTLoadV2
	}
	sp := s.begin(load)
	tr, err := easytracker.New("trace")
	if err == nil {
		err = tr.LoadProgram(p.Name+".trace", easytracker.WithSource(string(data)))
	}
	if s.end(sp, err) != nil {
		return nil, err
	}
	return tr, s.do(famTTStart, func() error {
		if err := tr.Start(); err != nil {
			return err
		}
		return tr.Watch(p.Watches[0])
	})
}

func (w *ttScript) terminateFam(i int) fam {
	if i%ttBackings == ttLive {
		return famPyTerminate
	}
	return famTTTerminate
}

func (w *ttScript) session(s *sess, i int) error {
	tr, err := w.open(s, i)
	if tr != nil {
		defer closeTracker(s, tr, w.terminateFam(i))
	}
	if err != nil {
		return err
	}
	tt, ok1 := easytracker.As[easytracker.TimeTraveler](tr)
	rw, ok2 := easytracker.As[easytracker.ReverseWatcher](tr)
	sp, ok3 := easytracker.As[easytracker.StateProvider](tr)
	if !ok1 || !ok2 || !ok3 {
		return errors.New("session cannot time-travel")
	}
	fams := ttFams[i%ttBackings]
	n := tt.Len()
	for _, o := range w.nav[i/ttBackings] {
		// The family span covers the navigation call and the State that
		// follows it: both are the backing's work.
		t0 := time.Now()
		var c int32
		var err error
		changed := -1
		switch o.op {
		case 's':
			c = s.begin(fams[0])
			err = tt.SeekTo(int(o.frac * float64(n-1)))
		case 'b':
			c = s.begin(fams[1])
			err = tt.StepBack()
		case 'n':
			c = s.begin(fams[1])
			err = tt.NextBack()
		case 'r':
			c = s.begin(fams[2])
			err = tt.ResumeBack()
		case 'l':
			c = s.begin(fams[3])
			var vc *easytracker.VarChange
			if vc, err = rw.LastChange(o.expr); err == nil {
				changed = vc.Step
			}
		}
		var st *easytracker.State
		if err == nil {
			st, err = sp.State()
		}
		if s.end(c, err) != nil {
			return fmt.Errorf("%c: %w", o.op, err)
		}
		s.b.observe(t0)
		c = s.begin(famCheck)
		js, err := json.Marshal(st)
		if s.end(c, err) != nil {
			return err
		}
		s.digest(js, "", tt.Pos(), changed)
	}
	return nil
}
