package tracetracker

import (
	"easytracker/internal/core"
	"easytracker/internal/ttd"
)

// Reverse execution over the recorded trace — the paper's future-work item
// backed by its preliminary RR-based tracker ("allowing reverse execution
// or deterministic visualization"). Because the trace tracker navigates an
// immutable recording, stepping backwards is exact and deterministic; on
// the delta-encoded format every landing reconstructs its state from the
// nearest checkpoint, so a backward state is byte-identical to the forward
// replay's. The moves are ttd.Cursor's, shared with live recordings and the
// MI server; reverse execution resurrects a finished replay.

// navOK guards the reverse-navigation calls.
func (t *Tracker) navOK(op string) error {
	if !t.loaded {
		return t.werr(op, core.ErrNoProgram)
	}
	if !t.started {
		return t.werr(op, core.ErrNotStarted)
	}
	return nil
}

// land reports a landing on Start or a navigation move: the replay is
// running again, paused at the cursor with the ENTRY/STEP reason and the
// line before it, and every watch snapshot is re-baselined there.
func (t *Tracker) land() {
	t.exited = false
	pos := t.cur.Pos(t.tl)
	t.reason, t.lastLine = ttd.Landing(t.tl, t.file, pos)
	t.probes.Baseline(t.tl, pos)
}

// StepBack moves one recorded step backwards. At the first step it reports
// the entry pause again.
func (t *Tracker) StepBack() error {
	if err := t.navOK("StepBack"); err != nil {
		return err
	}
	t.cur.StepBack(t.tl, t.exited)
	t.land()
	return nil
}

// ResumeBack runs backwards to the previous step where an armed probe would
// pause (ttd.Probes.PauseBack, which spends no ignore count or one-shot
// latch), or to the entry point.
func (t *Tracker) ResumeBack() error {
	if err := t.navOK("ResumeBack"); err != nil {
		return err
	}
	r, ok := t.cur.ResumeBack(t.tl, t.exited, func(pos int) (core.PauseReason, bool) {
		return t.probes.PauseBack(t.tl, t.file, pos)
	})
	t.land()
	if ok {
		t.reason = r
	}
	return nil
}

// NextBack steps backwards to the previous step at the same or shallower
// depth.
func (t *Tracker) NextBack() error {
	if err := t.navOK("NextBack"); err != nil {
		return err
	}
	t.cur.NextBack(t.tl, t.exited)
	t.land()
	return nil
}

// Seek jumps the replay to an absolute step index (deterministic
// time-travel, the capability RR recording enables). The terminal
// "finished" step maps to the last real step.
func (t *Tracker) Seek(step int) error {
	if err := t.navOK("Seek"); err != nil {
		return err
	}
	if err := t.cur.Seek(t.tl, step, t.exited); err != nil {
		return t.werr("Seek", err)
	}
	t.land()
	return nil
}

// SeekTo implements core.TimeTraveler; it is Seek under the capability
// surface's name.
func (t *Tracker) SeekTo(step int) error { return t.Seek(step) }

// Pos returns the current step index (navigation UIs); -1 before Start.
func (t *Tracker) Pos() int {
	if !t.started {
		return -1
	}
	return t.cur.Pos(t.tl)
}

// Len returns the number of recorded steps.
func (t *Tracker) Len() int {
	if t.tl == nil {
		return 0
	}
	return t.tl.Len()
}

// LastChange implements core.ReverseWatcher: the most recent recorded
// write of expr at or before the current position. On the delta format it
// is answered from the write log by binary search; on v0/v1 traces it
// falls back to a backward scan of the recorded states.
func (t *Tracker) LastChange(expr string) (*core.VarChange, error) {
	if err := t.navOK("LastChange"); err != nil {
		return nil, err
	}
	ch, err := t.tl.LastChange(expr, t.cur.Pos(t.tl))
	if err != nil {
		return nil, t.werr("LastChange", err)
	}
	return ch, nil
}
