package ttd

import (
	"fmt"

	"easytracker/internal/core"
)

// ErrNoRecording is a navigation call's error on a live session loaded
// without core.WithRecording.
var ErrNoRecording = fmt.Errorf("%w: recording not enabled (load with WithRecording)", core.ErrUnsupported)

// Travel is the time-travel front end every tracker embeds: the calls of
// core.TimeTraveler and core.ReverseWatcher, written once over a Cursor
// into the tracker's recording. Like core.Arming it holds the tracker as
// an interface value, so constructing a tracker allocates nothing more.
//
// On a live recording the head is the inferior's present: a move off it
// stashes the present's pause, and a move back onto it, or Present, which
// every forward command calls first, restores it. A replay's program has
// always finished, so no move ends on its head.
type Travel struct {
	h        Host
	cur      Cursor
	live     core.PauseReason
	liveLast int
}

// Host is the tracker a Travel navigates. Travel reads the pause a move
// leaves with PauseReason and LastLine, and a landing's file with
// Position; the tracker supplies the rest.
type Host interface {
	PauseReason() core.PauseReason
	LastLine() int
	Position() (string, int)
	// Timeline is the tracker's recording, nil when it has none. started
	// reports whether it holds a position yet (Pos is -1 until then), and
	// done whether its program has finished, as a replay's always has.
	Timeline() (tl Timeline, started, done bool)
	// TravelGuard is the error, if any, navigation call op fails with
	// before core.ErrNotStarted is checked, in the tracker's own order.
	TravelGuard(op string) error
	// TravelErr wraps err, navigation call op's error, as the tracker does.
	TravelErr(op string, err error) error
	// Land sets the tracker's pause to r, after line last. pos is the step
	// of tl a move landed on, with r and last as Landing reports them (r
	// the pause ResumeBack found), unless the tracker has a landing rule of
	// its own; or -1 for a return to the present and its stashed pause.
	Land(tl Timeline, pos int, r core.PauseReason, last int) error
}

// Reverser is a Host with a reverse classifier, as Probes.PauseBack is,
// which ResumeBack needs: without one it fails with ErrUnsupported.
type Reverser interface {
	PauseBack(tl Timeline, pos int) (core.PauseReason, bool)
}

// NewTravel returns the time-travel calls of the tracker h.
func NewTravel(h Host) Travel { return Travel{h: h} }

// Rewound reports whether inspection is rewound off the present.
func (tv *Travel) Rewound() bool { return !tv.cur.AtHead() }

// Present returns inspection to the inferior's present.
func (tv *Travel) Present() {
	if !tv.cur.AtHead() {
		tv.cur = Cursor{}
		// A return to the present applies no landing rule, so it cannot fail.
		_ = tv.h.Land(nil, -1, tv.live, tv.liveLast)
	}
}

// Advance moves a replay one recorded step forward (Cursor.Advance).
func (tv *Travel) Advance(tl Timeline) bool { return tv.cur.Advance(tl) }

// Pos implements core.TimeTraveler: the recorded step inspection is on,
// -1 before the recording holds one.
func (tv *Travel) Pos() int {
	tl, started, _ := tv.h.Timeline()
	if !started {
		return -1
	}
	return tv.cur.Pos(tl)
}

// Len implements core.TimeTraveler: the number of recorded steps.
func (tv *Travel) Len() int {
	if tl, _, _ := tv.h.Timeline(); tl != nil {
		return tl.Len()
	}
	return 0
}

// StepBack implements core.TimeTraveler: one recorded step back. At the
// first step it stays; from the head of a finished run it lands on the
// head, the last moment the program was alive.
func (tv *Travel) StepBack() error { return tv.move("StepBack", (*Cursor).StepBack) }

// NextBack implements core.TimeTraveler: back to the previous recorded
// step at the same or a shallower depth.
func (tv *Travel) NextBack() error { return tv.move("NextBack", (*Cursor).NextBack) }

// move makes the cursor move mv for navigation call op.
func (tv *Travel) move(op string, mv func(*Cursor, Timeline, bool)) error {
	tl, done, err := tv.at(op)
	if err != nil {
		return err
	}
	mv(&tv.cur, tl, done)
	return tv.land(op, tl, nil)
}

// SeekTo implements core.TimeTraveler: a jump to an absolute recorded
// step. Seeking to the head of a running inferior returns to the present.
func (tv *Travel) SeekTo(step int) error {
	tl, done, err := tv.at("SeekTo")
	if err != nil {
		return err
	}
	if err := tv.cur.Seek(tl, step, done); err != nil {
		return tv.h.TravelErr("SeekTo", err)
	}
	return tv.land("SeekTo", tl, nil)
}

// ResumeBack implements core.TimeTraveler: back to the previous recorded
// step where the Host's reverse classifier pauses, or to the first step.
// A reverse move spends no ignore count or one-shot latch and moves no
// watch snapshot, so forward execution resumes from the present as armed.
func (tv *Travel) ResumeBack() error {
	rv, ok := tv.h.(Reverser)
	if !ok {
		return tv.h.TravelErr("ResumeBack", fmt.Errorf("%w: no reverse classifier", core.ErrUnsupported))
	}
	tl, done, err := tv.at("ResumeBack")
	if err != nil {
		return err
	}
	r, found := tv.cur.ResumeBack(tl, done, func(pos int) (core.PauseReason, bool) {
		return rv.PauseBack(tl, pos)
	})
	if !found {
		return tv.land("ResumeBack", tl, nil)
	}
	return tv.land("ResumeBack", tl, &r)
}

// LastChange implements core.ReverseWatcher: the most recent recorded
// write of expr at or before the step inspection is on, and on the head of
// a finished run also on the terminal step (Recorder.Finish).
func (tv *Travel) LastChange(expr string) (*core.VarChange, error) {
	tl, done, err := tv.at("LastChange")
	if err != nil {
		return nil, err
	}
	before := tv.cur.Pos(tl)
	if done && tv.cur.AtHead() {
		before = tl.Len() - 1
	}
	ch, err := tl.LastChange(expr, before)
	if err != nil {
		return nil, tv.h.TravelErr("LastChange", err)
	}
	return ch, nil
}

// at guards navigation call op: the recording and whether its program has
// finished, or op's error. On the present it stashes the pause a move leaves.
func (tv *Travel) at(op string) (Timeline, bool, error) {
	err := tv.h.TravelGuard(op)
	tl, started, done := tv.h.Timeline()
	if err == nil && !started {
		err = core.ErrNotStarted
	}
	if err != nil {
		return nil, false, tv.h.TravelErr(op, err)
	}
	if tv.cur.AtHead() {
		tv.live, tv.liveLast = tv.h.PauseReason(), tv.h.LastLine()
	}
	return tl, done, nil
}

// land reports where a move put the cursor: the present's stashed pause on
// the head, else the landing at its step, or found, the pause ResumeBack
// found there. found is a pointer, as a PauseReason is large to copy.
func (tv *Travel) land(op string, tl Timeline, found *core.PauseReason) error {
	pos, r, last := -1, tv.live, tv.liveLast
	if !tv.cur.AtHead() {
		pos = tv.cur.Pos(tl)
		file, _ := tv.h.Position()
		r, last = Landing(tl, file, pos)
		if found != nil {
			r = *found
		}
	}
	if err := tv.h.Land(tl, pos, r, last); err != nil {
		return tv.h.TravelErr(op, err)
	}
	return nil
}
