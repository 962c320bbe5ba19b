package ttd

import (
	"easytracker/internal/core"
	"easytracker/internal/pt"
)

// Timeline is the replay engine's read-only view of a recording. *Store
// implements it over a delta-encoded trace; the trace tracker adapts a
// full-state v0/v1 trace to it. Navigation (Cursor) and probe replay
// (Probes.Replay and PauseBack) go through it only, so every recording
// format and every surface that replays one answers alike.
type Timeline interface {
	// Len is the number of recorded steps.
	Len() int
	// EventAt, LineAt, FuncAt and DepthAt are step i's recorded metadata.
	EventAt(i int) string
	LineAt(i int) int
	FuncAt(i int) string
	DepthAt(i int) int
	// StateAt is the full state at step i; nil for a step that carries
	// none, such as a v1 trace's terminal "finished" step.
	StateAt(i int) (*core.State, error)
	// ReasonAt is step i's recorded pause reason (zero when it has none).
	ReasonAt(i int) (core.PauseReason, error)
	// VarAt resolves a variable reference parsed by core.ParseVarRef at
	// step i; nil when it is undefined there.
	VarAt(i int, scope, name string) *core.Value
	// StdoutAt is the cumulative program output through step i.
	StdoutAt(i int) string
	// LastChange is the reverse watchpoint: the most recent recorded write
	// of expr at or before step before; core.ErrUnknownVariable when none.
	LastChange(expr string, before int) (*core.VarChange, error)
}

// Head is the recorded step of the program's present moment: the last real
// step, skipping a finished recording's terminal bookkeeping step.
func Head(tl Timeline) int {
	h := tl.Len() - 1
	if h > 0 && tl.EventAt(h) == pt.EventFinished {
		h--
	}
	return h
}

// Landing is the pause a navigation move reports at step i, ENTRY at the
// first step and STEP elsewhere, with the line executed before it (0 at
// entry).
func Landing(tl Timeline, file string, i int) (core.PauseReason, int) {
	r := core.PauseReason{Type: core.PauseStep, File: file, Line: tl.LineAt(i)}
	if i == 0 {
		r.Type = core.PauseEntry
		return r, 0
	}
	return r, tl.LineAt(i - 1)
}

// Served is the State a replay serves at a step whose recorded state is st:
// a fresh shallow copy carrying the replay's own pause reason r, as
// PauseReason reports it (st is shared with the recording and stays
// untouched). A watch pause's New is the binding st itself holds, so the
// served document encodes alike on every backing: a v1 step's VarAt is that
// binding already, a v2 store's may be an equal value from the write log.
func Served(st *core.State, r core.PauseReason) *core.State {
	if r.Type == core.PauseWatch {
		if scope, name, err := core.ParseVarRef(r.Variable); err == nil {
			r.New, _, _ = st.Lookup(scope, name)
		}
	}
	cp := *st
	cp.Reason = r
	return &cp
}

// Cursor is a replay position: the head (the zero value) or a recorded
// step. For a live recording the head is the inferior's present and any
// other step is rewound inspection. Every move takes done, whether the
// program has finished: stepping back from the head of a finished run
// lands on the head itself, the last moment the program was alive. The
// step is an int32, as in the write log, to keep the trackers' size class.
type Cursor struct {
	step   int32
	onStep bool
}

// stepCursor is the cursor on recorded step i.
func stepCursor(i int) Cursor { return Cursor{step: int32(i), onStep: true} }

// AtHead reports whether the cursor is on the head.
func (c Cursor) AtHead() bool { return !c.onStep }

// Pos is the recorded step the cursor is on.
func (c Cursor) Pos(tl Timeline) int {
	if c.onStep {
		return int(c.step)
	}
	return Head(tl)
}

// backFrom is the first candidate step of a backward move.
func (c Cursor) backFrom(tl Timeline, done bool) int {
	if !c.onStep && done {
		return Head(tl)
	}
	return c.Pos(tl) - 1
}

// StepBack moves one recorded step back; at the first step it stays.
func (c *Cursor) StepBack(tl Timeline, done bool) {
	*c = stepCursor(max(c.backFrom(tl, done), 0))
}

// NextBack moves back to the previous step at the same or a shallower
// depth, or to the first step.
func (c *Cursor) NextBack(tl Timeline, done bool) {
	depth := tl.DepthAt(c.Pos(tl))
	pos := c.backFrom(tl, done)
	for pos > 0 && tl.DepthAt(pos) > depth {
		pos--
	}
	*c = stepCursor(max(pos, 0))
}

// ResumeBack moves back to the nearest earlier step where match reports a
// pause, returning that pause, or to the first step with ok false.
func (c *Cursor) ResumeBack(tl Timeline, done bool, match func(pos int) (core.PauseReason, bool)) (core.PauseReason, bool) {
	for pos := c.backFrom(tl, done); pos > 0; pos-- {
		if r, ok := match(pos); ok {
			*c = stepCursor(pos)
			return r, true
		}
	}
	*c = stepCursor(0)
	return core.PauseReason{}, false
}

// Seek jumps to an absolute step; core.ErrBadLine when it is out of range.
// A terminal "finished" step maps to the step before it, when there is
// one. Seeking to the head of a program that has not finished lands on the
// head itself, so a live recording returns to its present.
func (c *Cursor) Seek(tl Timeline, step int, done bool) error {
	if step < 0 || step >= tl.Len() {
		return core.ErrBadLine
	}
	if step > 0 && tl.EventAt(step) == pt.EventFinished {
		step--
	}
	if step == Head(tl) && !done {
		*c = Cursor{}
	} else {
		*c = stepCursor(step)
	}
	return nil
}

// Advance moves one step forward, for a replay that owns its timeline. At
// the terminal "finished" step or past the last step the program has
// finished: the cursor goes to the head and Advance reports false.
func (c *Cursor) Advance(tl Timeline) bool {
	next := c.Pos(tl) + 1
	if next >= tl.Len() || tl.EventAt(next) == pt.EventFinished {
		*c = Cursor{}
		return false
	}
	*c = stepCursor(next)
	return true
}
