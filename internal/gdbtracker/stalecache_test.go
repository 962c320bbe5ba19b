package gdbtracker

import (
	"strconv"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/mi"
)

// globalInt pulls the named global's int content out of a snapshot.
func globalInt(t *testing.T, st *core.State, name string) int64 {
	t.Helper()
	for _, g := range st.Globals {
		if g.Name == name {
			v := g.Value
			if v.Kind == core.Ref {
				v = v.Deref()
			}
			n, ok := v.Content.(int64)
			if !ok {
				t.Fatalf("global %s content = %T", name, v.Content)
			}
			return n
		}
	}
	t.Fatalf("global %s not in snapshot", name)
	return 0
}

func TestStateRevalidatedAcrossNonStoringStep(t *testing.T) {
	// Stepping over a line that performs no memory store must not pay
	// for a second full state transfer: the previous snapshot is
	// revalidated by the data version the *stopped record carries and
	// patched with the new position.
	src := `int g = 5;
int main() {
    g = 6;
    return 0;
}`
	tr := start(t, src)
	st0, err := tr.State() // entry pause, full fetch
	if err != nil {
		t.Fatal(err)
	}
	if got := globalInt(t, st0, "g"); got != 5 {
		t.Fatalf("g at entry = %d, want 5", got)
	}

	if err := tr.Step(); err != nil { // executes g = 6: stores
		t.Fatal(err)
	}
	st1, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	// A store invalidates the stale snapshot: the new state must be a
	// fresh decode, so its variable objects cannot be shared with st0.
	if len(st0.Globals) > 0 && len(st1.Globals) > 0 && st1.Globals[0] == st0.Globals[0] {
		t.Error("storing step reused the stale snapshot")
	}
	if got := globalInt(t, st1, "g"); got != 6 {
		t.Errorf("g after store = %d, want 6", got)
	}
	st1Line, st1Reason := st1.Frame.Line, st1.Reason.Type

	if err := tr.Step(); err != nil { // executes return 0: no stores
		t.Fatal(err)
	}
	st2, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	// Revalidation reuses the decoded object graph (shared *Variable
	// identity proves no second transfer) ...
	if len(st2.Globals) == 0 || len(st1.Globals) == 0 || st2.Globals[0] != st1.Globals[0] {
		t.Error("non-storing step re-fetched the full state instead of revalidating")
	}
	_, line := tr.Position()
	if st2.Frame == nil || st2.Frame.Line != line {
		t.Errorf("revalidated frame line = %d, want current position %d", st2.Frame.Line, line)
	}
	if st2.Reason.Type != core.PauseStep {
		t.Errorf("revalidated reason = %v, want STEP", st2.Reason.Type)
	}
	// ... but must not patch the retained earlier snapshot in place:
	// consumers that record one State per pause (pt.Record) would see
	// history rewritten.
	if st1.Frame.Line != st1Line || st1.Reason.Type != st1Reason {
		t.Errorf("revalidation mutated the previous pause's snapshot: line %d -> %d, reason %v -> %v",
			st1Line, st1.Frame.Line, st1Reason, st1.Reason.Type)
	}
}

func TestStateNotReusedAcrossFunctionChange(t *testing.T) {
	// Even with no stores in between, a snapshot taken in one function
	// must not be served for a pause in another: the innermost frame
	// would be wrong.
	src := `int id(int x) {
    return x;
}
int main() {
    int r = id(3);
    return r;
}`
	tr := start(t, src)
	if _, err := tr.State(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, done := tr.ExitCode(); done {
			t.Fatal("program exited before reaching id()")
		}
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		st, err := tr.State()
		if err != nil {
			t.Fatal(err)
		}
		fr, err := tr.CurrentFrame()
		if err != nil {
			t.Fatal(err)
		}
		if st.Frame != fr {
			t.Fatal("State and CurrentFrame disagree")
		}
		_, line := tr.Position()
		if fr.Line != line {
			t.Fatalf("frame line %d != position line %d (stale frame served?)", fr.Line, line)
		}
		if fr.Name == "id" {
			return // reached the callee with a consistent frame
		}
	}
	t.Fatal("never stepped into id()")
}

func TestInvalidateStateCacheDropsStaleCandidate(t *testing.T) {
	src := `int main() {
    int x = 1;
    x = 2;
    return 0;
}`
	tr := start(t, src)
	st0, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	tr.InvalidateStateCache()
	st1, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh transfer decodes a fresh frame graph; a served cache would
	// hand back the identical *Frame.
	if st1.Frame == st0.Frame {
		t.Error("InvalidateStateCache did not force a fresh transfer")
	}
}

// TestRevalidatedFrameCarriesPC: a revalidated snapshot's innermost frame
// takes the new pause's program counter as well as its line, so the State
// served (and recorded) at a pause reached without a store is the one a
// full transfer would give.
func TestRevalidatedFrameCarriesPC(t *testing.T) {
	src := `int g = 5;
int main() {
    int x = 1;
    x = 2;
    return 0;
}`
	tr := start(t, src)
	for i := 0; i < 3; i++ {
		if _, err := tr.State(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		st, err := tr.State()
		if err != nil {
			t.Fatal(err)
		}
		regs, err := tr.Registers()
		if err != nil {
			t.Fatal(err)
		}
		if st.Frame.PC != regs["pc"] {
			t.Fatalf("step %d: frame PC %#x, machine PC %#x", i+1, st.Frame.PC, regs["pc"])
		}
	}
}

// opLog records the operation of every MI command sent through it.
type opLog struct {
	mi.Conn
	ops []string
}

func (c *opLog) Send(line string) error {
	if _, op, _, err := mi.SplitCommand(line); err == nil {
		c.ops = append(c.ops, op)
	}
	return c.Conn.Send(line)
}

// TestStateCostsOneCommand steps through a program with storing lines,
// lines that store nothing, and a call, reading the State at every pause.
// A State sends at most one MI command, -et-inspect; at a pause that
// stored nothing since the previous one, in the same frame, it sends none,
// and the reused snapshot's innermost PC is the debugger's pc register
// there.
func TestStateCostsOneCommand(t *testing.T) {
	const src = `int g = 1;
int twice(int x) {
    return x + x;
}
int main() {
    int a = 2;
    if (a > 1) {
        g = twice(a);
    }
    if (g > 3) {
        a = 3;
    }
    return 0;
}`
	log := &opLog{}
	tr := New()
	tr.SetConnWrapper(func(c mi.Conn) mi.Conn { log.Conn = c; return log })
	if err := tr.LoadProgram("prog.c", core.WithSource(src)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	// versionAt reads -et-inspect's data version and the pc register
	// with round trips of their own, outside the State being counted.
	versionAt := func() (uint64, uint64) {
		resp, err := tr.send("-et-inspect")
		if err != nil {
			t.Fatal(err)
		}
		ver, err := strconv.ParseUint(resp.Result.GetString("version"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		regs, err := tr.Registers()
		if err != nil {
			t.Fatal(err)
		}
		return ver, regs["pc"]
	}
	if _, err := tr.State(); err != nil {
		t.Fatal(err)
	}
	prevVer, _ := versionAt()
	prev := tr.state.Frame
	var reused, fetched int
	called := false
	for step := 1; ; step++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		before := len(log.ops)
		st, err := tr.State()
		if err != nil {
			t.Fatal(err)
		}
		sent := log.ops[before:]
		ver, pc := versionAt()
		called = called || st.Frame.Name == "twice"
		same := ver == prevVer && st.Frame.Name == prev.Name && st.Frame.Depth == prev.Depth
		switch {
		case same && len(sent) != 0:
			t.Errorf("step %d (line %d): nothing stored since the last pause, but State sent %v", step, st.Frame.Line, sent)
		case same:
			reused++
			if st.Frame.PC != pc {
				t.Errorf("step %d: reused snapshot's PC %#x, the pc register reads %#x", step, st.Frame.PC, pc)
			}
		case len(sent) != 1 || sent[0] != "-et-inspect":
			t.Errorf("step %d (line %d): State sent %v, want one -et-inspect", step, st.Frame.Line, sent)
		default:
			fetched++
		}
		prevVer, prev = ver, st.Frame
	}
	if reused == 0 || fetched == 0 || !called {
		t.Errorf("reused %d snapshots and fetched %d, entered the call: %v; want some of each", reused, fetched, called)
	}
}
