package main

import (
	"time"

	"easytracker"
)

// probeWL is probe-py: debugger-style sessions on long-running MiniPy
// programs with few pauses. The script arms global, local and list watches,
// a conditional line breakpoint, a conditionally tracked function and an
// ignore count, then Resumes to each pause and reads PauseReason and
// CurrentFrame.
type probeWL struct {
	ps   []*program
	want []string
}

func (w *probeWL) sessions() int       { return len(w.ps) }
func (w *probeWL) stdout(i int) string { return w.want[i] }
func (w *probeWL) setUp(*bench) error  { return nil }
func (w *probeWL) tearDown()           {}

func (w *probeWL) oracle(*bench) (err error) {
	w.want, err = stdouts(w.ps, runPy)
	return err
}

// armProbes arms p's probe plan on a started tracker.
func armProbes(tr easytracker.Tracker, p *program) error {
	for k, v := range p.Watches {
		var opts []easytracker.BreakOption
		if k == 0 && p.IgnoreHits > 0 {
			opts = append(opts, easytracker.WithIgnoreHits(p.IgnoreHits))
		}
		if err := tr.Watch(v, opts...); err != nil {
			return err
		}
	}
	for _, c := range p.Conds {
		if err := tr.BreakBeforeLine("", c.Line, easytracker.When(c.When)); err != nil {
			return err
		}
	}
	if p.Track != "" {
		return tr.TrackFunction(p.Track, easytracker.When(p.TrackWhen))
	}
	return nil
}

func (w *probeWL) open(s *sess, i int) (easytracker.Tracker, error) {
	p := w.ps[i]
	sp := s.begin(famPyLoad)
	tr, err := easytracker.New("minipy")
	if err == nil {
		err = tr.LoadProgram(p.Name, easytracker.WithSource(p.Src), easytracker.WithStdout(&s.out))
	}
	if s.end(sp, err) != nil {
		return nil, err
	}
	if err := s.do(famPyStart, tr.Start); err != nil {
		return tr, err
	}
	return tr, s.do(famPyArm, func() error { return armProbes(tr, p) })
}

func (w *probeWL) session(s *sess, i int) error {
	tr, err := w.open(s, i)
	if tr != nil {
		defer closeTracker(s, tr, famPyTerminate)
	}
	if err != nil {
		return err
	}
	for {
		t0 := time.Now()
		if err := s.do(famPyResume, tr.Resume); err != nil {
			return err
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		r := tr.PauseReason()
		c := s.begin(famPyFrame)
		fr, err := tr.CurrentFrame()
		if s.end(c, err) != nil {
			return err
		}
		s.b.observe(t0)
		digestPause(s, r, fr)
	}
	code, _ := tr.ExitCode()
	s.digest(nil, "exit", code)
	return nil
}

// digestPause folds what the script saw at a pause into the digest: the
// pause reason with the watched variable and its old and new values, and
// the frame with its variables' values.
func digestPause(s *sess, r easytracker.PauseReason, fr *easytracker.Frame) {
	c := s.begin(famCheck)
	clear(s.seen)
	s.h.WriteString(r.Function)
	s.h.WriteString(r.Variable)
	s.foldInt(int64(r.Type))
	s.foldInt(int64(r.Line))
	s.foldValue(r.Old)
	s.foldValue(r.New)
	s.foldValue(r.ReturnValue)
	s.h.WriteString(fr.Name)
	s.foldInt(int64(fr.Line))
	s.foldInt(int64(fr.Depth))
	for _, v := range fr.Vars {
		s.h.WriteString(v.Name)
		s.foldValue(v.Value)
	}
	s.h.WriteByte(0)
	s.end(c, nil)
}

// layers compiles the corpus on minipy, climbs the MiniPy rungs, and
// records and navigates the time-travel corpus.
func (w *probeWL) layers(b *bench, seed uint64, lm map[string]float64) error {
	if err := compilePy(b.tr, w.ps); err != nil {
		return err
	}
	if err := pyRungs(b, seed, lm); err != nil {
		return err
	}
	return timeTravel(b, seed, lm)
}

// hold stops session i at its first pause.
func (w *probeWL) hold(s *sess, i int) (func(), error) {
	tr, err := w.open(s, i)
	if err == nil {
		err = tr.Resume()
	}
	if err != nil {
		if tr != nil {
			tr.Terminate()
		}
		return nil, err
	}
	return func() { tr.Terminate() }, nil
}
