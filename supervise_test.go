package easytracker_test

import (
	"errors"
	"testing"
	"time"

	"easytracker"
)

// The supervision acceptance matrix: a runaway inferior in each language is
// stopped three ways — Interrupt(), WithExecutionTimeout, and a resource
// budget — through both the synchronous and the asynchronous API, and every
// combination must land on an inspectable PauseInterrupted pause.

const runawayPy = `n = 0
while True:
    n = n + 1
`

const runawayC = `int main() {
    int n = 0;
    while (1) {
        n = n + 1;
    }
    return 0;
}`

// superviseWay is one row of the matrix: the load options that arm the
// stopper, the expected pause detail, and for the manual way, the goroutine
// that pulls the trigger.
type superviseWay struct {
	name   string
	opts   []easytracker.LoadOption
	detail string
	manual bool
}

func superviseWays(budget easytracker.Budgets) []superviseWay {
	return []superviseWay{
		{name: "interrupt", detail: "interrupt", manual: true},
		{name: "deadline", detail: "deadline",
			opts: []easytracker.LoadOption{easytracker.WithExecutionTimeout(30 * time.Millisecond)}},
		{name: "budget", detail: "step-budget",
			opts: []easytracker.LoadOption{easytracker.WithBudgets(budget)}},
	}
}

type superviseLang struct {
	name, kind, path, src string
	budget                easytracker.Budgets
}

func superviseLangs() []superviseLang {
	return []superviseLang{
		{name: "minipy", kind: "minipy", path: "runaway.py", src: runawayPy,
			budget: easytracker.Budgets{MaxSteps: 2000}},
		{name: "minigdb", kind: "minigdb", path: "runaway.c", src: runawayC,
			budget: easytracker.Budgets{MaxInstructions: 100_000}},
	}
}

// checkInterruptedState verifies the pause is a real, inspectable pause:
// the reason carries the expected detail and the snapshot shows the loop
// counter already incremented.
func checkInterruptedState(t *testing.T, tr easytracker.Tracker, detail string) {
	t.Helper()
	reason := tr.PauseReason()
	if reason.Type != easytracker.PauseInterrupted {
		t.Fatalf("pause type = %v, want PauseInterrupted", reason.Type)
	}
	if reason.Detail != detail {
		t.Fatalf("pause detail = %q, want %q", reason.Detail, detail)
	}
	if reason.Line <= 0 {
		t.Errorf("pause line = %d, want a real source position", reason.Line)
	}
	sp, ok := easytracker.As[easytracker.StateProvider](tr)
	if !ok {
		t.Fatal("tracker has no StateProvider capability")
	}
	st, err := sp.State()
	if err != nil {
		t.Fatalf("State() at interrupted pause: %v", err)
	}
	if st.Reason.Type != easytracker.PauseInterrupted {
		t.Errorf("state reason = %v, want PauseInterrupted", st.Reason.Type)
	}
	n := lookupCounter(t, st)
	if n <= 0 {
		t.Errorf("loop counter n = %d, want > 0 (inferior should have run)", n)
	}
}

// lookupCounter finds the loop counter n in the snapshot: a local in main
// for MiniC (a direct primitive), a global for the MiniPy module body (a
// reference to a primitive).
func lookupCounter(t *testing.T, st *easytracker.State) int64 {
	t.Helper()
	read := func(v *easytracker.Value) int64 {
		if d := v.Deref(); d != nil {
			v = d
		}
		n, _ := v.Int()
		return n
	}
	if st.Frame != nil {
		if v := st.Frame.Lookup("n"); v != nil {
			return read(v.Value)
		}
	}
	for _, g := range st.Globals {
		if g.Name == "n" {
			return read(g.Value)
		}
	}
	t.Fatal("counter n not found in state")
	return 0
}

// TestSuperviseRunawaySync stops a runaway loop through the blocking API:
// Resume() returns normally with the tracker paused and inspectable.
func TestSuperviseRunawaySync(t *testing.T) {
	for _, lang := range superviseLangs() {
		for _, way := range superviseWays(lang.budget) {
			t.Run(lang.name+"/"+way.name, func(t *testing.T) {
				tr, err := easytracker.New(lang.kind)
				if err != nil {
					t.Fatal(err)
				}
				opts := append([]easytracker.LoadOption{easytracker.WithSource(lang.src)}, way.opts...)
				if err := tr.LoadProgram(lang.path, opts...); err != nil {
					t.Fatal(err)
				}
				defer tr.Terminate()
				if err := tr.Start(); err != nil {
					t.Fatal(err)
				}
				if way.manual {
					// The flag is sticky, so firing "too early" still
					// stops the Resume below immediately.
					go func() {
						time.Sleep(20 * time.Millisecond)
						if !easytracker.Interrupt(tr) {
							t.Error("tracker does not support Interrupt")
						}
					}()
				}
				if err := tr.Resume(); err != nil {
					t.Fatalf("Resume of runaway loop: %v", err)
				}
				checkInterruptedState(t, tr, way.detail)
				if _, done := tr.ExitCode(); done {
					t.Fatal("interrupted inferior reported as exited")
				}
			})
		}
	}
}

// TestSuperviseRunawayAsync stops the same runaway loops through the
// asynchronous wrapper: the pause arrives as a normal event and the paused
// tracker is inspectable via Do.
func TestSuperviseRunawayAsync(t *testing.T) {
	for _, lang := range superviseLangs() {
		for _, way := range superviseWays(lang.budget) {
			t.Run(lang.name+"/"+way.name, func(t *testing.T) {
				tr, err := easytracker.New(lang.kind)
				if err != nil {
					t.Fatal(err)
				}
				opts := append([]easytracker.LoadOption{easytracker.WithSource(lang.src)}, way.opts...)
				if err := tr.LoadProgram(lang.path, opts...); err != nil {
					t.Fatal(err)
				}
				a := easytracker.NewAsync(tr)
				defer a.Close()

				recv := func() easytracker.AsyncEvent {
					select {
					case ev := <-a.Events():
						return ev
					case <-time.After(10 * time.Second):
						t.Fatal("timeout waiting for event")
						return easytracker.AsyncEvent{}
					}
				}
				a.Start()
				if ev := recv(); ev.Err != nil {
					t.Fatal(ev.Err)
				}
				a.Resume()
				if way.manual {
					// Interrupt bypasses the command queue — the queue
					// owner is blocked inside the very Resume being
					// interrupted.
					time.Sleep(20 * time.Millisecond)
					if !a.Interrupt() {
						t.Fatal("async tracker does not support Interrupt")
					}
				}
				ev := recv()
				if ev.Err != nil {
					t.Fatalf("runaway Resume event: %v", ev.Err)
				}
				if ev.Reason.Type != easytracker.PauseInterrupted || ev.Reason.Detail != way.detail {
					t.Fatalf("event reason = %+v, want PauseInterrupted/%s", ev.Reason, way.detail)
				}
				if err := a.Do(func(tr easytracker.Tracker) error {
					checkInterruptedState(t, tr, way.detail)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSuperviseResumable proves an interrupted pause is an ordinary pause:
// the inferior resumes from it and can be interrupted again.
func TestSuperviseResumable(t *testing.T) {
	for _, lang := range superviseLangs() {
		t.Run(lang.name, func(t *testing.T) {
			tr, err := easytracker.New(lang.kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.LoadProgram(lang.path, easytracker.WithSource(lang.src)); err != nil {
				t.Fatal(err)
			}
			defer tr.Terminate()
			if err := tr.Start(); err != nil {
				t.Fatal(err)
			}
			var prev int64
			for round := 0; round < 3; round++ {
				go func() {
					time.Sleep(15 * time.Millisecond)
					easytracker.Interrupt(tr)
				}()
				if err := tr.Resume(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				sp, _ := easytracker.As[easytracker.StateProvider](tr)
				st, err := sp.State()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				n := lookupCounter(t, st)
				if n < prev {
					t.Fatalf("round %d: counter went backwards (%d -> %d)", round, prev, n)
				}
				prev = n
			}
			if prev <= 0 {
				t.Fatal("inferior made no progress across interrupted resumes")
			}
		})
	}
}

// TestSuperviseBudgetsMiniPy exercises the depth and heap budgets specific
// to the interpreted tracker.
func TestSuperviseBudgetsMiniPy(t *testing.T) {
	t.Run("depth", func(t *testing.T) {
		src := "def down(k):\n    return down(k + 1)\n\ndown(0)\n"
		tr, err := easytracker.New("minipy")
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.LoadProgram("deep.py", easytracker.WithSource(src),
			easytracker.WithBudgets(easytracker.Budgets{MaxDepth: 25})); err != nil {
			t.Fatal(err)
		}
		defer tr.Terminate()
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		r := tr.PauseReason()
		if r.Type != easytracker.PauseInterrupted || r.Detail != "depth-budget" {
			t.Fatalf("reason = %+v, want PauseInterrupted/depth-budget", r)
		}
		fr, err := tr.CurrentFrame()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Name != "down" {
			t.Errorf("paused in %q, want the recursing function", fr.Name)
		}
	})
	t.Run("heap", func(t *testing.T) {
		src := "acc = []\nwhile True:\n    acc = acc + [1]\n"
		tr, err := easytracker.New("minipy")
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.LoadProgram("alloc.py", easytracker.WithSource(src),
			easytracker.WithBudgets(easytracker.Budgets{MaxHeapObjects: 200})); err != nil {
			t.Fatal(err)
		}
		defer tr.Terminate()
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		r := tr.PauseReason()
		if r.Type != easytracker.PauseInterrupted || r.Detail != "heap-budget" {
			t.Fatalf("reason = %+v, want PauseInterrupted/heap-budget", r)
		}
	})
}

// TestSuperviseInterruptWithWatchpoints interleaves interrupts with an
// armed watchpoint: a supervision pause must not disturb the watch
// machinery's dirty tracking, so the watch hit after an interrupted pause
// still reports the correct old/new transition.
//
// The interrupts are deterministic: the flag is sticky, so interrupting a
// paused inferior makes the next resume pause at its first trace event.
// Each round parks the inferior at a chosen line with a one-shot
// breakpoint, interrupts it there and resumes, which covers both an
// interrupt landing between watch hits and one consumed on the very event
// where the write to w first becomes visible.
func TestSuperviseInterruptWithWatchpoints(t *testing.T) {
	src := `w = 0
while True:
    k = 0
    while k < 3:
        k = k + 1
    w = w + 1
`
	tr, err := easytracker.New("minipy")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadProgram("watchloop.py", easytracker.WithSource(src)); err != nil {
		t.Fatal(err)
	}
	defer tr.Terminate()
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Watch("w"); err != nil {
		t.Fatal(err)
	}
	// next is the expected New of the next watch hit: the first hit is
	// the initial assignment (Old is nil, New 0), every later hit is an
	// increment by exactly one — regardless of how many interrupted
	// pauses happen in between.
	next := int64(0)
	checkHit := func(round int, r easytracker.PauseReason) {
		t.Helper()
		if r.Type != easytracker.PauseWatch || r.Variable != "w" {
			t.Fatalf("round %d: reason %+v, want watch on w", round, r)
		}
		if next == 0 {
			if r.Old != nil {
				t.Fatalf("round %d: first hit Old = %s, want nil", round, r.Old)
			}
		} else if oldV, _ := r.Old.Deref().Int(); oldV != next-1 {
			t.Fatalf("round %d: watch Old = %d, want %d", round, oldV, next-1)
		}
		if newV, _ := r.New.Deref().Int(); newV != next {
			t.Fatalf("round %d: watch New = %d, want %d", round, newV, next)
		}
		next++
	}
	resume := func(round int, want easytracker.PauseReasonType, line int) {
		t.Helper()
		if err := tr.Resume(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if r := tr.PauseReason(); r.Type != want || r.Line != line {
			t.Fatalf("round %d: reason %+v, want %v at line %d", round, r, want, line)
		}
	}
	// parkThenInterrupt stops before line with a one-shot breakpoint,
	// raises the interrupt while paused, and resumes: the inferior must
	// pause at the very next event, at wantLine, without a watch report.
	parkThenInterrupt := func(round, line, wantLine int) {
		t.Helper()
		if err := tr.BreakBeforeLine("watchloop.py", line, easytracker.WithOneShot()); err != nil {
			t.Fatal(err)
		}
		resume(round, easytracker.PauseBreakpoint, line)
		if !easytracker.Interrupt(tr) {
			t.Fatal("minipy tracker is not interruptible")
		}
		resume(round, easytracker.PauseInterrupted, wantLine)
	}
	for round := 0; round < 4; round++ {
		if err := tr.Resume(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkHit(round, tr.PauseReason())
		// Between watch hits: inside the inner loop, where w is not
		// written; the interrupt lands on the loop test that follows.
		parkThenInterrupt(round, 5, 4)
		// On the write: stopped before w = w + 1, the interrupt is
		// consumed on the next event, the first one at which the new w
		// is visible. The supervision pause skips the watch compare, so
		// the next resume must report exactly that write.
		parkThenInterrupt(round, 6, 2)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	checkHit(4, tr.PauseReason())
}

// TestSuperviseBudgetSnapshotAliasing checks the budget-trip pause against
// the MiniGDB stale-snapshot revalidation invariants: a snapshot taken at a
// budget pause must stay immutable when the inferior runs on and pauses
// again, and the new pause's snapshot must reflect the new stores.
func TestSuperviseBudgetSnapshotAliasing(t *testing.T) {
	tr, err := easytracker.New("minigdb")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadProgram("runaway.c", easytracker.WithSource(runawayC),
		easytracker.WithBudgets(easytracker.Budgets{MaxInstructions: 50_000})); err != nil {
		t.Fatal(err)
	}
	defer tr.Terminate()
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if r := tr.PauseReason(); r.Type != easytracker.PauseInterrupted || r.Detail != "step-budget" {
		t.Fatalf("reason = %+v, want step-budget pause", r)
	}
	sp, _ := easytracker.As[easytracker.StateProvider](tr)
	st1, err := sp.State()
	if err != nil {
		t.Fatal(err)
	}
	n1 := lookupCounter(t, st1)
	if n1 <= 0 {
		t.Fatalf("counter at budget pause = %d", n1)
	}
	// Run on (the budget is one-shot) and stop again via interrupt.
	go func() {
		time.Sleep(15 * time.Millisecond)
		easytracker.Interrupt(tr)
	}()
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	st2, err := sp.State()
	if err != nil {
		t.Fatal(err)
	}
	n2 := lookupCounter(t, st2)
	if n2 <= n1 {
		t.Fatalf("counter did not advance across pauses (%d -> %d)", n1, n2)
	}
	// The first snapshot must be untouched by the second pause.
	if again := lookupCounter(t, st1); again != n1 {
		t.Fatalf("budget-pause snapshot mutated in place (%d -> %d)", n1, again)
	}
	if st1.Reason.Detail != "step-budget" || st2.Reason.Type != easytracker.PauseInterrupted {
		t.Fatalf("snapshot reasons: %+v / %+v", st1.Reason, st2.Reason)
	}
}

// TestSuperviseAsyncQueueDrain queues commands behind a runaway Resume and
// interrupts: the interrupt must unblock the queue without losing the
// queued command — every control call still produces exactly one event.
func TestSuperviseAsyncQueueDrain(t *testing.T) {
	tr, err := easytracker.New("minipy")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadProgram("runaway.py", easytracker.WithSource(runawayPy)); err != nil {
		t.Fatal(err)
	}
	a := easytracker.NewAsync(tr)
	defer a.Close()
	recv := func() easytracker.AsyncEvent {
		select {
		case ev := <-a.Events():
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("timeout waiting for event — queued command lost")
			return easytracker.AsyncEvent{}
		}
	}
	a.Start()
	if ev := recv(); ev.Err != nil {
		t.Fatal(ev.Err)
	}
	// Resume blocks the queue owner forever; Step and Next pile up behind
	// it. The interrupt unwedges the Resume, then the queued commands
	// drain in order.
	a.Resume()
	a.Step()
	a.Next()
	time.Sleep(20 * time.Millisecond)
	if !a.Interrupt() {
		t.Fatal("async Interrupt unsupported")
	}
	ops := []string{}
	for i := 0; i < 3; i++ {
		ev := recv()
		if ev.Err != nil {
			t.Fatalf("event %d: %v", i, ev.Err)
		}
		ops = append(ops, ev.Op)
	}
	if ops[0] != "Resume" || ops[1] != "Step" || ops[2] != "Next" {
		t.Fatalf("event order = %v", ops)
	}
}

// TestSuperviseErrorTaxonomy asserts the public error taxonomy stays
// intact for a clean exit (a clean run must never classify as a crash; the
// crash-containment positive case lives in the pytracker package tests,
// which can sabotage the interpreter hook).
func TestSuperviseErrorTaxonomy(t *testing.T) {
	tr, err := easytracker.New("minipy")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadProgram("ok.py", easytracker.WithSource("x = 1\n")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if code, done := tr.ExitCode(); !done || code != 0 {
		t.Fatalf("exit = %d/%v", code, done)
	}
	// A clean run must not be classified as a crash.
	if errors.Is(tr.Resume(), easytracker.ErrInferiorCrash) {
		t.Error("clean exit misclassified as inferior crash")
	}
}
