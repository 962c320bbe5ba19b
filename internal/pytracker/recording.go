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
//   - Navigation happens on the tool goroutine while the inferior is paused
//     (or exited). A replay cursor rewinds *inspection* into the recording:
//     State, CurrentFrame, GlobalVariables and Position serve reconstructed
//     snapshots from the store while rewound. The inferior itself never moves
//     backwards — any forward execution command snaps inspection back to the
//     live present and then runs.
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
	if err := t.rec.Finish(code, t.recOut.take()); err != nil {
		t.recErr = fmt.Errorf("pytracker: recording: %w", err)
	}
}

// Recording returns the live store over the session's recording, or nil when
// recording was not requested. Reads are only valid while the inferior is
// paused or exited.
func (t *Tracker) Recording() *ttd.Store {
	if t.rec == nil {
		return nil
	}
	return t.rec.Store()
}

// SupportsCapability implements core.CapabilityGate: the time-travel methods
// are compiled in unconditionally but only honest when a recording exists,
// so TimeTraveler and ReverseWatcher are gated on WithRecording.
func (t *Tracker) SupportsCapability(ptr any) bool {
	switch ptr.(type) {
	case *core.TimeTraveler, *core.ReverseWatcher:
		return t.rec != nil
	}
	return true
}

// replaying reports whether inspection is rewound into the recording.
func (t *Tracker) replaying() bool { return t.rec != nil && !t.cur.AtHead() }

// ttOK guards every time-travel operation.
func (t *Tracker) ttOK() error {
	if t.rec == nil {
		return fmt.Errorf("%w: recording not enabled (load with WithRecording)", core.ErrUnsupported)
	}
	if t.recErr != nil {
		return t.recErr
	}
	if !t.started {
		return core.ErrNotStarted
	}
	if t.rec.Len() == 0 {
		return core.ErrNotStarted
	}
	return nil
}

// leaveLive stashes the present-moment pause bookkeeping before a cursor
// move, so returning to the present restores it.
func (t *Tracker) leaveLive() {
	if t.cur.AtHead() {
		t.liveReason, t.liveLast = t.reason, t.lastLine
	}
}

// land reports where a cursor move put inspection: the landing step, or the
// live present when the move ended on the head of a running inferior.
func (t *Tracker) land() {
	if t.cur.AtHead() {
		t.reason, t.lastLine = t.liveReason, t.liveLast
		return
	}
	s := t.rec.Store()
	t.reason, t.lastLine = ttd.Landing(s, t.file, t.cur.Pos(s))
}

// returnToLive snaps inspection back to the inferior's present moment.
func (t *Tracker) returnToLive() {
	if !t.cur.AtHead() {
		t.cur = ttd.Cursor{}
		t.land()
	}
}

// StepBack implements core.TimeTraveler: rewind inspection one recorded step.
func (t *Tracker) StepBack() error {
	if err := t.ttOK(); err != nil {
		return t.werr("StepBack", err)
	}
	t.leaveLive()
	t.cur.StepBack(t.rec.Store(), t.exited)
	t.land()
	return nil
}

// SeekTo implements core.TimeTraveler: jump inspection to an absolute
// recorded step. Seeking to the live head of a still-running inferior
// returns inspection to the live present.
func (t *Tracker) SeekTo(step int) error {
	if err := t.ttOK(); err != nil {
		return t.werr("SeekTo", err)
	}
	t.leaveLive()
	if err := t.cur.Seek(t.rec.Store(), step, t.exited); err != nil {
		return t.werr("SeekTo", err)
	}
	t.land()
	return nil
}

// ResumeBack implements core.TimeTraveler: rewind to the previous recorded
// step where an armed probe would pause (ttd.Probes.PauseBack over the
// session's own probe table), or to entry. Reverse traversal does not
// consume ignore counts or one-shot arming, and leaves the watch
// snapshots alone: forward execution resumes from the present.
func (t *Tracker) ResumeBack() error {
	if err := t.ttOK(); err != nil {
		return t.werr("ResumeBack", err)
	}
	s := t.rec.Store()
	t.leaveLive()
	r, ok := t.cur.ResumeBack(s, t.exited, func(pos int) (core.PauseReason, bool) {
		return t.probes.PauseBack(s, t.file, pos)
	})
	t.land()
	if ok {
		t.reason = r
	}
	return nil
}

// NextBack implements core.TimeTraveler: rewind to the previous recorded
// step at the same or shallower depth.
func (t *Tracker) NextBack() error {
	if err := t.ttOK(); err != nil {
		return t.werr("NextBack", err)
	}
	t.leaveLive()
	t.cur.NextBack(t.rec.Store(), t.exited)
	t.land()
	return nil
}

// Pos implements core.TimeTraveler: the current step index in the
// recording, -1 before Start.
func (t *Tracker) Pos() int {
	if t.rec == nil || t.rec.Len() == 0 {
		return -1
	}
	return t.cur.Pos(t.rec.Store())
}

// Len implements core.TimeTraveler: the number of recorded steps.
func (t *Tracker) Len() int {
	if t.rec == nil {
		return 0
	}
	return t.rec.Len()
}

// LastChange implements core.ReverseWatcher: the most recent recorded write
// of expr at or before the current position, answered from the recording's
// write log by binary search — no state reconstruction, no backward scan.
func (t *Tracker) LastChange(expr string) (*core.VarChange, error) {
	if err := t.ttOK(); err != nil {
		return nil, t.werr("LastChange", err)
	}
	s := t.rec.Store()
	ch, err := s.LastChange(expr, t.cur.Pos(s))
	if err != nil {
		return nil, t.werr("LastChange", err)
	}
	return ch, nil
}

// replayState serves State() while rewound: the reconstructed snapshot at
// the replay cursor as a replay serves it (ttd.Served: a fresh shallow copy
// carrying the rewound pause's reason). The frame and value graphs are
// shared with the store's memo and must be treated as read-only, like the
// live snapshot cache.
func (t *Tracker) replayState() (*core.State, error) {
	s := t.rec.Store()
	st, err := s.StateAt(t.cur.Pos(s))
	if err != nil {
		return nil, err
	}
	return ttd.Served(st, t.reason), nil
}
