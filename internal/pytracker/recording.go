package pytracker

import (
	"fmt"
	"io"

	"easytracker/internal/core"
	"easytracker/internal/minipy"
	"easytracker/internal/pt"
	"easytracker/internal/query"
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
	t.replay = -1
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
func (t *Tracker) replaying() bool { return t.rec != nil && t.replay >= 0 }

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

// head is the recorded step of the inferior's present moment: the last real
// step, skipping the terminal bookkeeping step of a finished recording.
func (t *Tracker) head() int {
	s := t.rec.Store()
	h := s.Len() - 1
	if h > 0 && s.EventAt(h) == pt.EventFinished {
		h--
	}
	return h
}

// curPos is the step index navigation operates from: the replay cursor while
// rewound, the live head otherwise.
func (t *Tracker) curPos() int {
	if t.replay >= 0 {
		return t.replay
	}
	return t.head()
}

// enterReplay rewinds inspection to the given step, stashing the live pause
// bookkeeping the first time so returning to the present restores it.
func (t *Tracker) enterReplay(pos int) {
	if t.replay < 0 {
		t.liveReason, t.liveLast = t.reason, t.lastLine
	}
	t.replay = pos
	s := t.rec.Store()
	t.lastLine = 0
	if pos > 0 {
		t.lastLine = s.LineAt(pos - 1)
	}
	typ := core.PauseStep
	if pos == 0 {
		typ = core.PauseEntry
	}
	t.reason = core.PauseReason{Type: typ, File: t.file, Line: s.LineAt(pos)}
}

// returnToLive snaps inspection back to the inferior's present moment.
func (t *Tracker) returnToLive() {
	if t.replay < 0 {
		return
	}
	t.replay = -1
	t.reason, t.lastLine = t.liveReason, t.liveLast
}

// backFrom is the first candidate step of a backward move: one before the
// cursor, except when leaving the exit pause, where the head itself is the
// last moment the program was alive.
func (t *Tracker) backFrom() int {
	if t.replay < 0 && t.exited {
		return t.head()
	}
	return t.curPos() - 1
}

// StepBack implements core.TimeTraveler: rewind inspection one recorded step.
func (t *Tracker) StepBack() error {
	if err := t.ttOK(); err != nil {
		return t.werr("StepBack", err)
	}
	pos := t.backFrom()
	if pos < 0 {
		pos = 0
	}
	t.enterReplay(pos)
	return nil
}

// SeekTo implements core.TimeTraveler: jump inspection to an absolute
// recorded step. Seeking to the live head of a still-running inferior
// returns inspection to the live present.
func (t *Tracker) SeekTo(step int) error {
	if err := t.ttOK(); err != nil {
		return t.werr("SeekTo", err)
	}
	s := t.rec.Store()
	if step < 0 || step >= s.Len() {
		return t.werr("SeekTo", core.ErrBadLine)
	}
	if s.EventAt(step) == pt.EventFinished && step > 0 {
		step--
	}
	if step == t.head() && !t.exited {
		t.returnToLive()
		return nil
	}
	t.enterReplay(step)
	return nil
}

// ResumeBack implements core.TimeTraveler: rewind to the previous recorded
// step matching an armed pause condition (line/function breakpoints, tracked
// functions, watches — all evaluated against the recording), or to entry.
// Reverse traversal does not consume ignore counts or one-shot arming: the
// probes' forward bookkeeping stays untouched.
func (t *Tracker) ResumeBack() error {
	if err := t.ttOK(); err != nil {
		return t.werr("ResumeBack", err)
	}
	for pos := t.backFrom(); pos > 0; pos-- {
		if r, ok := t.recPauseAt(pos); ok {
			t.enterReplay(pos)
			t.reason = r
			return nil
		}
	}
	t.enterReplay(0)
	return nil
}

// NextBack implements core.TimeTraveler: rewind to the previous recorded
// step at the same or shallower depth.
func (t *Tracker) NextBack() error {
	if err := t.ttOK(); err != nil {
		return t.werr("NextBack", err)
	}
	s := t.rec.Store()
	startDepth := s.DepthAt(t.curPos())
	pos := t.backFrom()
	for pos > 0 && s.DepthAt(pos) > startDepth {
		pos--
	}
	if pos < 0 {
		pos = 0
	}
	t.enterReplay(pos)
	return nil
}

// Pos implements core.TimeTraveler: the current step index in the recording.
func (t *Tracker) Pos() int {
	if t.rec == nil || t.rec.Len() == 0 {
		return 0
	}
	return t.curPos()
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
	ch, err := t.rec.Store().LastChange(expr, t.curPos())
	if err != nil {
		return nil, t.werr("LastChange", err)
	}
	return ch, nil
}

// recPauseAt evaluates the armed pause conditions against recorded step pos,
// mirroring checkPause's priority order on the recording's metadata: watches
// (a change between pos and pos+1 is a modification crossed in reverse),
// tracked boundaries, function breakpoints, then line breakpoints. Probe
// conditions are honored through a lazy StateView, so sweeping past steps
// whose conditions never touch variables reconstructs no state.
func (t *Tracker) recPauseAt(pos int) (core.PauseReason, bool) {
	s := t.rec.Store()
	ev, line, fn := s.EventAt(pos), s.LineAt(pos), s.FuncAt(pos)
	view := query.StateView{
		EventName: recQueryEvent(ev), LineNo: line,
		FileName: t.file, FuncName: fn,
		LazyState: func() *core.State {
			st, err := s.StateAt(pos)
			if err != nil {
				return nil
			}
			return st
		},
		DepthNo: s.DepthAt(pos),
	}
	for _, w := range t.watches {
		if w.disarmed {
			continue
		}
		if w.cond != nil && !w.cond.Match(&view) {
			continue
		}
		hereV := s.VarAt(pos, w.id)
		fromV := s.VarAt(pos+1, w.id)
		// The rule reads the transition in forward time, here -> from.
		// Old is the value at the step we came from (later in time),
		// New the value here — the transition as crossed in reverse,
		// matching the trace replayer's convention.
		if core.WatchChanged(hereV, fromV) {
			return core.PauseReason{
				Type: core.PauseWatch, Variable: w.id,
				Old: fromV, New: hereV,
				File: t.file, Line: line,
			}, true
		}
	}
	condOK := func(c *probeCtl) bool {
		return !c.disarmed && (c.cond == nil || c.cond.Match(&view))
	}
	switch ev {
	case pt.EventCall:
		if ti := t.tracked[fn]; ti != nil && condOK(&ti.probeCtl) {
			return core.PauseReason{
				Type: core.PauseCall, Function: fn, File: t.file, Line: line,
			}, true
		}
		for i := range t.funcBPs {
			bp := &t.funcBPs[i]
			if bp.name == fn && depthOK(bp.maxDepth, s.DepthAt(pos)) && condOK(&bp.probeCtl) {
				return core.PauseReason{
					Type: core.PauseBreakpoint, Function: fn, File: t.file, Line: line,
				}, true
			}
		}
	case pt.EventReturn:
		if ti := t.tracked[fn]; ti != nil && condOK(&ti.probeCtl) {
			r, _ := s.ReasonAt(pos)
			return core.PauseReason{
				Type: core.PauseReturn, Function: fn,
				ReturnValue: r.ReturnValue,
				File:        t.file, Line: line,
			}, true
		}
	default:
		for i := range t.lineBPs {
			bp := &t.lineBPs[i]
			if bp.line == line && depthOK(bp.maxDepth, s.DepthAt(pos)) && condOK(&bp.probeCtl) {
				return core.PauseReason{
					Type: core.PauseBreakpoint, File: t.file, Line: line,
				}, true
			}
		}
	}
	return core.PauseReason{}, false
}

// recQueryEvent maps a recorded pt event onto the query language's event
// vocabulary.
func recQueryEvent(ev string) string {
	switch ev {
	case pt.EventCall:
		return query.EventCall
	case pt.EventReturn:
		return query.EventReturn
	default:
		return query.EventLine
	}
}

// replayState serves State() while rewound: the reconstructed snapshot at
// the replay cursor. Each call returns a fresh shallow copy; the frame and
// value graphs are shared with the store's memo and must be treated as
// read-only, like the live snapshot cache.
func (t *Tracker) replayState() (*core.State, error) {
	st, err := t.rec.Store().StateAt(t.replay)
	if err != nil {
		return nil, err
	}
	cp := *st
	return &cp, nil
}
