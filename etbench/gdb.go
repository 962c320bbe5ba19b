package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"easytracker"
)

// gdbWL is gdb-mi: generated MiniC programs driven through the minigdb
// tracker over the in-process MI pipe, three sessions per program —
// stepping (Step + State on every line), tracking (TrackFunction on the
// recursive function, Resume + State) and watching (heap tracking and
// recording on, Watch a global, Resume + State, then StepBack/SeekTo +
// State).
type gdbWL struct {
	ps   []*program
	want []string
}

const (
	gdbStepping = iota
	gdbTracking
	gdbWatching
	gdbSessions
)

func (w *gdbWL) sessions() int       { return gdbSessions * len(w.ps) }
func (w *gdbWL) stdout(i int) string { return w.want[i/gdbSessions] }
func (w *gdbWL) setUp(*bench) error  { return nil }
func (w *gdbWL) tearDown()           {}

func (w *gdbWL) oracle(*bench) (err error) {
	w.want, err = stdouts(w.ps, runC)
	return err
}

func (w *gdbWL) open(s *sess, i int) (easytracker.Tracker, error) {
	p, kind := w.ps[i/gdbSessions], i%gdbSessions
	opts := []easytracker.LoadOption{easytracker.WithSource(p.Src), easytracker.WithStdout(&s.out)}
	if kind == gdbWatching {
		opts = append(opts, easytracker.WithHeapTracking(), easytracker.WithRecording(0))
	}
	sp := s.begin(famGdbLoad)
	tr, err := easytracker.New("minigdb")
	if err == nil {
		err = tr.LoadProgram(p.Name, opts...)
	}
	if s.end(sp, err) != nil {
		return nil, err
	}
	if err := s.do(famGdbStart, tr.Start); err != nil {
		return tr, err
	}
	switch kind {
	case gdbTracking:
		err = s.do(famGdbArm, func() error { return tr.TrackFunction(p.Track) })
	case gdbWatching:
		err = s.do(famGdbArm, func() error { return tr.Watch("::" + p.Watches[0]) })
	}
	return tr, err
}

// inspect reads and digests the state at the pause an interaction ended
// in; t0 is when the interaction began.
func inspect(s *sess, tr easytracker.Tracker, t0 time.Time, extra int) error {
	sp, ok := easytracker.As[easytracker.StateProvider](tr)
	if !ok {
		return errors.New("tracker provides no State")
	}
	c := s.begin(famGdbState)
	st, err := sp.State()
	if s.end(c, err) != nil {
		return err
	}
	s.b.observe(t0)
	c = s.begin(famCheck)
	js, err := json.Marshal(st)
	if s.end(c, err) != nil {
		return err
	}
	s.digest(js, "", extra)
	return nil
}

func (w *gdbWL) session(s *sess, i int) error {
	tr, err := w.open(s, i)
	if tr != nil {
		defer closeTracker(s, tr, famGdbTerminate)
	}
	if err != nil {
		return err
	}
	control, f := tr.Resume, famGdbResume
	if i%gdbSessions == gdbStepping {
		control, f = tr.Step, famGdbStep
	}
	for {
		t0 := time.Now()
		if err := s.do(f, control); err != nil {
			return err
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		if err := inspect(s, tr, t0, 0); err != nil {
			return err
		}
	}
	code, _ := tr.ExitCode()
	s.digest(nil, "exit", code)
	if i%gdbSessions != gdbWatching {
		return nil
	}
	tt, ok := easytracker.As[easytracker.TimeTraveler](tr)
	if !ok {
		return fmt.Errorf("watching session cannot time-travel")
	}
	n := tt.Len()
	for k, target := range []int{-1, -1, n / 2, n / 4, -1, n - 1} {
		t0 := time.Now()
		if target < 0 {
			err = s.do(famGdbStepBack, tt.StepBack)
		} else {
			err = s.do(famGdbSeek, func() error { return tt.SeekTo(target) })
		}
		if err != nil {
			return fmt.Errorf("time travel %d: %w", k, err)
		}
		if err := inspect(s, tr, t0, tt.Pos()); err != nil {
			return err
		}
	}
	return nil
}

// layers measures minic, vm and dbg below the tracker; the MI pipe's cost
// per step is the median gdbtracker Step of the traced passes minus the
// median dbg StepLine.
func (w *gdbWL) layers(b *bench, seed uint64, lm map[string]float64) error {
	if err := cLayers(b, seed, w.ps, lm); err != nil {
		return err
	}
	st := b.tr.stats()
	lm["mi.pipe_us_per_step"] = (medianInt(st[famGdbStep].durs) - medianInt(st[famDbgStep].durs)) / 1e3
	return nil
}

// hold stops session i at its first pause after Start.
func (w *gdbWL) hold(s *sess, i int) (func(), error) {
	tr, err := w.open(s, i)
	if err == nil {
		if i%gdbSessions == gdbStepping {
			err = tr.Step()
		} else {
			err = tr.Resume()
		}
	}
	if err != nil {
		if tr != nil {
			tr.Terminate()
		}
		return nil, err
	}
	return func() { tr.Terminate() }, nil
}
