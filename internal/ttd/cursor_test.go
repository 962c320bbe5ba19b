package ttd_test

import (
	"errors"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/ttd"
)

// recording builds a store of n recorded steps on lines 1..n, sealed with
// the terminal "finished" step when finished is set.
func recording(t *testing.T, n int, finished bool) *ttd.Store {
	t.Helper()
	rec := ttd.NewRecorder("c.py", "", "minipy", 0)
	for i := 1; i <= n; i++ {
		st := &core.State{Frame: &core.Frame{Name: "<module>", Line: i}}
		if err := rec.Add("step_line", i, "<module>", "", st); err != nil {
			t.Fatal(err)
		}
	}
	if finished {
		if err := rec.Finish(0, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Store()
}

// TestCursorRules pins the cursor's rules on both ends of a recording: the
// head skips the terminal step, stepping back from the head of a finished
// run lands on the head, Seek maps the terminal step to the one before it
// only when that one exists, and Advance stops on the head.
func TestCursorRules(t *testing.T) {
	s := recording(t, 4, true) // steps 0..3, finished at 4
	if h := ttd.Head(s); h != 3 {
		t.Fatalf("Head = %d, want 3", h)
	}
	var c ttd.Cursor
	if !c.AtHead() || c.Pos(s) != 3 {
		t.Fatalf("zero cursor at %d, head %v", c.Pos(s), c.AtHead())
	}
	c.StepBack(s, false)
	if c.Pos(s) != 2 {
		t.Fatalf("StepBack from a running head = %d, want 2", c.Pos(s))
	}
	c = ttd.Cursor{}
	c.StepBack(s, true)
	if c.Pos(s) != 3 || c.AtHead() {
		t.Fatalf("StepBack from a finished head = %d (head %v), want step 3", c.Pos(s), c.AtHead())
	}
	if err := c.Seek(s, 4, false); err != nil || !c.AtHead() {
		t.Fatalf("Seek(finished) of a running program = %v, head %v", err, c.AtHead())
	}
	if err := c.Seek(s, 4, true); err != nil || c.Pos(s) != 3 || c.AtHead() {
		t.Fatalf("Seek(finished) of a finished program = %v at %d", err, c.Pos(s))
	}
	if err := c.Seek(s, 5, true); !errors.Is(err, core.ErrBadLine) {
		t.Fatalf("Seek past the end = %v", err)
	}
	if err := c.Seek(s, 1, true); err != nil {
		t.Fatal(err)
	}
	if !c.Advance(s) || !c.Advance(s) || c.Pos(s) != 3 {
		t.Fatalf("Advance from 1 reached %d", c.Pos(s))
	}
	if c.Advance(s) || !c.AtHead() {
		t.Fatal("Advance past the last step did not stop on the head")
	}
	if _, ok := c.ResumeBack(s, true, func(int) (core.PauseReason, bool) { return core.PauseReason{}, false }); ok || c.Pos(s) != 0 {
		t.Fatalf("ResumeBack with no match = %v at %d, want entry", ok, c.Pos(s))
	}
	if r, last := ttd.Landing(s, "c.py", 0); r.Type != core.PauseEntry || last != 0 {
		t.Fatalf("Landing(0) = %v, %d", r, last)
	}
	if r, last := ttd.Landing(s, "c.py", 2); r.Type != core.PauseStep || r.Line != 3 || last != 2 {
		t.Fatalf("Landing(2) = %v, %d", r, last)
	}

	// A recording of only the terminal step: there is no step before it,
	// so it is its own head and Seek keeps it.
	empty := recording(t, 0, true)
	c = ttd.Cursor{}
	if err := c.Seek(empty, 0, true); err != nil || c.Pos(empty) != 0 {
		t.Fatalf("Seek(0) of a finished-only recording = %v at %d", err, c.Pos(empty))
	}
	c.StepBack(empty, true)
	c.NextBack(empty, true)
	if c.Pos(empty) != 0 {
		t.Fatalf("moves on a finished-only recording left step 0: %d", c.Pos(empty))
	}
}
