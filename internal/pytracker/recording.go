package pytracker

import (
	"fmt"
	"io"

	"easytracker/internal/core"
	"easytracker/internal/minipy"
	"easytracker/internal/pt"
	"easytracker/internal/ttd"
)

// Live omniscient recording (core.WithRecording): the trace hook feeds every
// executed event into a ttd.Recorder while the inferior runs, so the session
// can later step backwards, seek to any recorded step, and answer
// reverse-watchpoint queries — without re-running the program. The design
// splits cleanly in two:
//
//   - Recording happens on the inferior goroutine, inside traceFn, before any
//     pause logic. The hot path (a line event in an unchanged frame with no
//     interpreter mutation since the last event, vouched for by the mutation
//     epoch) records a line advance without converting any state; only
//     mutation, calls and returns pay for a snapshot.
//
//   - Navigation (the embedded ttd.Travel) happens on the tool goroutine
//     while the inferior is paused (or exited). It rewinds *inspection* into
//     the recording: State, CurrentFrame, GlobalVariables and Position serve
//     reconstructed snapshots from the store while rewound. The inferior
//     itself never moves backwards — any forward execution command snaps
//     inspection back to the live present and then runs.
//
// Reconstructed states come from ttd.Store.StateAt, which is a pure function
// of the step index, so seeking to a step yields byte-identical JSON to
// replaying the recording forward to the same step.

// recordTee captures the inferior's stdout between trace events so every
// recorded step carries its own output delta, while still forwarding to the
// writer the user configured.
type recordTee struct {
	dst io.Writer
	buf []byte
}

func (w *recordTee) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	if w.dst != nil {
		return w.dst.Write(p)
	}
	return len(p), nil
}

// take drains the output accumulated since the previous take.
func (w *recordTee) take() string {
	if len(w.buf) == 0 {
		return ""
	}
	s := string(w.buf)
	w.buf = w.buf[:0]
	return s
}

// initRecording arms the recorder at load time and interposes the stdout tee.
func (t *Tracker) initRecording(in *minipy.Interp, cfg core.LoadConfig, path, src string) {
	t.rec = ttd.NewRecorder(path, src, Kind, cfg.RecordInterval)
	t.recOut = &recordTee{dst: cfg.Stdout}
	in.SetStdout(t.recOut)
}

// recordEvent runs on the inferior goroutine for every trace event, ahead of
// supervision and pause checks. The fast path relies on the interpreter's
// write barriers: a line event in the same frame with an unchanged mutation
// epoch cannot have touched any scope or object, so only the line number
// advanced and no state conversion is needed. Calls and returns always change
// the frame pointer, so they can never take the fast path and every frame
// push/pop is snapshotted.
func (t *Tracker) recordEvent(fr *minipy.RTFrame, ev minipy.Event, ret *minipy.Object) {
	if t.recErr != nil {
		return
	}
	out := t.recOut.take()
	epoch := t.interp.Epoch()
	if ev == minipy.EventLine && fr == t.recFr && epoch == t.recEpoch {
		reason := core.PauseReason{Type: core.PauseStep, File: t.file, Line: fr.Line}
		if err := t.rec.AddLineOnly(fr.Line, out, reason); err != nil {
			t.recErr = fmt.Errorf("pytracker: recording: %w", err)
		}
		return
	}
	conv := minipy.NewConverter(t.interp)
	st := &core.State{
		Frame:   minipy.SnapshotFrame(conv, fr, t.file),
		Globals: minipy.SnapshotGlobals(conv, t.interp.Globals),
		Reason:  core.PauseReason{Type: core.PauseStep, File: t.file, Line: fr.Line},
	}
	event := pt.EventStepLine
	switch ev {
	case minipy.EventCall:
		event = pt.EventCall
		st.Reason = core.PauseReason{
			Type: core.PauseCall, Function: fr.Name, File: t.file, Line: fr.Line,
		}
	case minipy.EventReturn:
		event = pt.EventReturn
		st.Reason = core.PauseReason{
			Type: core.PauseReturn, Function: fr.Name, File: t.file, Line: fr.Line,
			ReturnValue: conv.Convert(ret),
		}
	}
	if t.rec.Len() == 0 {
		st.Reason = core.PauseReason{Type: core.PauseEntry, File: t.file, Line: fr.Line}
	}
	if err := t.rec.Add(event, fr.Line, fr.Name, out, st); err != nil {
		t.recErr = fmt.Errorf("pytracker: recording: %w", err)
		return
	}
	t.recFr, t.recEpoch = fr, epoch
}

// finishRecording seals the recording with the terminal step. Called on the
// tool goroutine after the inferior's exit has been received on doneCh, so
// the channel receive orders it after the last recordEvent.
func (t *Tracker) finishRecording(code int) {
	if t.rec == nil || t.recErr != nil {
		return
	}
	if err := t.rec.Finish(code, t.recOut.take(), nil); err != nil {
		t.recErr = fmt.Errorf("pytracker: recording: %w", err)
	}
}

// SupportsCapability implements core.CapabilityGate: the TimeTraveler and
// ReverseWatcher methods only work with a recording (WithRecording).
func (t *Tracker) SupportsCapability(ptr any) bool {
	switch ptr.(type) {
	case *core.TimeTraveler, *core.ReverseWatcher:
		return t.rec != nil
	}
	return true
}

// Timeline implements ttd.Host: the session's recording.
func (t *Tracker) Timeline() (ttd.Timeline, bool, bool) { return t.rec.Timeline(t.exited) }

// TravelGuard implements ttd.Host: a session navigates only what it
// recorded, and nothing once recording failed.
func (t *Tracker) TravelGuard(string) error {
	if t.rec == nil {
		return ttd.ErrNoRecording
	}
	return t.recErr
}

// TravelErr implements ttd.Host.
func (t *Tracker) TravelErr(op string, err error) error { return t.werr(op, err) }

// Land implements ttd.Host: a landing reports what ttd.Landing does.
func (t *Tracker) Land(_ ttd.Timeline, _ int, r core.PauseReason, last int) error {
	t.reason, t.lastLine = r, last
	return nil
}

// PauseBack implements ttd.Reverser with the session's own probe table.
func (t *Tracker) PauseBack(tl ttd.Timeline, pos int) (core.PauseReason, bool) {
	return t.probes.PauseBack(tl, t.file, pos)
}

// replayState serves State() while rewound: the reconstructed snapshot at
// the replay cursor as a replay serves it (ttd.Served: a fresh shallow copy
// carrying the rewound pause's reason). The frame and value graphs are
// shared with the store's memo and must be treated as read-only, like the
// live snapshot cache.
func (t *Tracker) replayState() (*core.State, error) {
	st, err := t.rec.Store().StateAt(t.Pos())
	if err != nil {
		return nil, err
	}
	return ttd.Served(st, t.reason), nil
}
