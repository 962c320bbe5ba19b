package tracetracker

import (
	"errors"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/pytracker"
	"easytracker/internal/ttd"
)

// finishedOnlyTrace is a v1 trace the decoder accepts whose only step is
// the terminal "finished" step: a seek that maps a finished step to the one
// before it without checking that one exists lands on step -1.
const finishedOnlyTrace = `{"code":"x = 1","file":"a.py","trace":[{"event":"finished","line":0,"stdout":""}]}`

// TestReplayRejectsTraceWithoutSteps: a recording with no step before its
// terminal step has nothing to replay, so both formats reject it at load,
// and the calls after the failed load report typed errors.
func TestReplayRejectsTraceWithoutSteps(t *testing.T) {
	tr := New()
	if err := tr.LoadProgram("a.trace", core.WithSource(finishedOnlyTrace)); err == nil {
		t.Fatal("v1 trace with only a finished step loaded")
	}
	if err := tr.Start(); !errors.Is(err, core.ErrNoProgram) {
		t.Fatalf("Start after rejected load = %v", err)
	}
	if err := tr.Seek(0); !errors.Is(err, core.ErrNoProgram) {
		t.Fatalf("Seek after rejected load = %v", err)
	}
	if _, err := tr.State(); !errors.Is(err, core.ErrNoProgram) {
		t.Fatalf("State after rejected load = %v", err)
	}

	v1, err := pt.Decode([]byte(finishedOnlyTrace))
	if err != nil {
		t.Fatal(err)
	}
	store, err := ttd.FromTrace(v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := New().LoadStore(store); err == nil {
		t.Fatal("v2 recording with only a finished step loaded")
	}
}

// TestReplayRunsOffUnfinishedTrace replays the partial trace a step budget
// leaves: no "finished" step, the last step INTERRUPTED. Running to its end
// leaves the cursor on the last step, and every navigation call from there
// lands inside the recording instead of indexing one past it.
func TestReplayRunsOffUnfinishedTrace(t *testing.T) {
	rec := pytracker.New()
	var out strings.Builder
	if err := rec.LoadProgram("loop.py", core.WithSource("i = 0\nwhile True:\n    i = i + 1\n"),
		core.WithStdout(&out), core.WithBudgets(core.Budgets{MaxSteps: 50})); err != nil {
		t.Fatal(err)
	}
	trace, err := pt.Record(rec, &out, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	if err != nil {
		t.Fatal(err)
	}
	last := trace.Steps[len(trace.Steps)-1]
	if last.Event == pt.EventFinished || last.State.Reason.Type != core.PauseInterrupted {
		t.Fatalf("recording does not end interrupted: %+v", last)
	}
	store, err := ttd.FromTrace(trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(*Tracker) error{
		"v1": func(tr *Tracker) error { return tr.LoadTrace(trace) },
		"v2": func(tr *Tracker) error { return tr.LoadStore(store) },
	} {
		t.Run(name, func(t *testing.T) {
			tr := New()
			if err := load(tr); err != nil {
				t.Fatal(err)
			}
			if err := tr.Start(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Resume(); err != nil {
				t.Fatal(err)
			}
			if _, done := tr.ExitCode(); !done {
				t.Fatal("Resume with nothing armed did not run to the end")
			}
			head := tr.Len() - 1
			if tr.Pos() != head {
				t.Fatalf("Pos after the end = %d, want the last step %d", tr.Pos(), head)
			}
			if err := tr.NextBack(); err != nil {
				t.Fatal(err)
			}
			if tr.Pos() != head {
				t.Fatalf("NextBack from the end landed on %d, want %d", tr.Pos(), head)
			}
			if err := tr.StepBack(); err != nil {
				t.Fatal(err)
			}
			if tr.Pos() != head-1 {
				t.Fatalf("StepBack landed on %d, want %d", tr.Pos(), head-1)
			}
			ch, err := tr.LastChange("::i")
			if err != nil {
				t.Fatal(err)
			}
			if ch.Step > head-1 {
				t.Fatalf("LastChange at step %d after the cursor", ch.Step)
			}
			if err := tr.Seek(head); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.State(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
