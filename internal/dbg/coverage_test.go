package dbg

import (
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/isa"
	"easytracker/internal/vm"
)

func TestAccessors(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	if d.Prog() == nil {
		t.Error("Prog nil")
	}
	if _, err := d.StepLine(nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range []StopReason{StopNone, StopEntry, StopStep,
		StopBreakpoint, StopWatch, StopExited, StopFault, StopReason(99)} {
		if r.String() == "" {
			t.Errorf("empty name for %d", int(r))
		}
	}
	if d.HeapMap() == nil {
		t.Error("HeapMap nil")
	}
}

func TestWatchAddrAndRemove(t *testing.T) {
	src := `int g = 0;
int main() {
    g = 1;
    g = 2;
    return 0;
}`
	d := started(t, src, vm.Config{})
	g := d.Prog().GlobalByName("g")
	w := d.WatchAddr("raw-g", uint64(g.Offset), 8)
	stop, err := d.Continue(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopWatch || stop.Watch.Name != "raw-g" {
		t.Fatalf("stop = %+v", stop)
	}
	d.RemoveWatch(w.ID)
	stop, err = d.Continue(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopExited {
		t.Errorf("after removal: %v", stop.Reason)
	}
	// Removing an unknown id is a no-op.
	d.RemoveWatch(99999)
}

// TestMaxDepthFilteredWithInternalWatch drives the Continue path where a
// maxdepth-filtered breakpoint coincides with internal watch traffic
// (exercising handleRaw).
func TestMaxDepthFilteredBreakpointInLoop(t *testing.T) {
	src := `int g = 0;
int tick(int d) {
    g = g + 1;
    if (d == 0) {
        return 0;
    }
    return tick(d - 1);
}
int main() {
    tick(5);
    return 0;
}`
	d := started(t, src, vm.Config{})
	// Watch internally so each g mutation produces internal traffic.
	if _, err := d.WatchGlobal("g", true); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BreakAtFunc("tick", 2); err != nil {
		t.Fatal(err)
	}
	internal := 0
	hits := 0
	for {
		stop, err := d.Continue(func(w *Watchpoint, h *vm.WatchHit) { internal++ })
		if err != nil {
			t.Fatal(err)
		}
		if stop.Reason == StopExited {
			break
		}
		hits++
	}
	if hits != 1 {
		t.Errorf("reported hits = %d, want 1", hits)
	}
	if internal != 6 {
		t.Errorf("internal watch hits = %d, want 6", internal)
	}
}

func TestInspectDoubleAndFuncPointer(t *testing.T) {
	src := `int helper() {
    return 1;
}
int main() {
    double d = 2.5;
    double* pd = &d;
    long fn = (long)helper;
    return 0;
}`
	d := started(t, src, vm.Config{})
	if _, err := d.BreakAtLine(8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	fr := d.NewInspector().Frame()
	pd := fr.Lookup("pd").Value
	if pd.Kind != core.Ref {
		t.Fatalf("pd = %+v", pd)
	}
	if f, ok := pd.Deref().Float(); !ok || f != 2.5 {
		t.Errorf("*pd = %s", pd.Deref())
	}
	fn := fr.Lookup("fn").Value
	if v, ok := fn.Int(); !ok || v == 0 {
		t.Errorf("fn = %s", fn)
	}
}

func TestInspectCharArrayAndGlobalsInternalFlag(t *testing.T) {
	src := `char msg[4] = {104, 105, 33, 0};
int main() {
    return 0;
}`
	// Globals with brace-initialized char arrays.
	d := started(t, src, vm.Config{})
	in := d.NewInspector()
	var msg *core.Value
	for _, g := range in.Globals(false) {
		if g.Name == "msg" {
			msg = g.Value
		}
	}
	if msg == nil || msg.Kind != core.List || len(msg.Elems()) != 4 {
		t.Fatalf("msg = %v", msg)
	}
	if v, _ := msg.Elems()[0].Int(); v != 104 {
		t.Errorf("msg[0] = %s", msg.Elems()[0])
	}
	// Internal globals only appear when requested.
	hasInternal := func(include bool) bool {
		for _, g := range d.NewInspector().Globals(include) {
			if strings.HasPrefix(g.Name, "__et_") {
				return true
			}
		}
		return false
	}
	if hasInternal(false) {
		t.Error("internal globals leaked")
	}
	if !hasInternal(true) {
		t.Error("internal globals missing when requested")
	}
}

func TestStepInterruptedByUserWatch(t *testing.T) {
	// A watchpoint firing during a NextLine (inside the skipped callee)
	// interrupts the step.
	src := `int g = 0;
int work() {
    g = 7;
    return 0;
}
int main() {
    work();
    return 0;
}`
	d := started(t, src, vm.Config{})
	if _, err := d.WatchGlobal("g", false); err != nil {
		t.Fatal(err)
	}
	stop, err := d.NextLine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopWatch {
		t.Errorf("stop = %v, want watch interrupt", stop.Reason)
	}
}

func TestStepToExitReportsExit(t *testing.T) {
	d := started(t, "int main() { return 3; }", vm.Config{})
	stop, err := d.StepLine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopExited || stop.ExitCode != 3 {
		t.Errorf("stop = %+v", stop)
	}
	if _, err := d.StepLine(nil); err != ErrExited {
		t.Errorf("step after exit = %v", err)
	}
	if _, err := d.NextLine(nil); err != ErrExited {
		t.Errorf("next after exit = %v", err)
	}
}

func TestUnstartedErrors(t *testing.T) {
	d := build(t, fibC, vm.Config{})
	if _, err := d.Continue(nil); err != ErrNotStarted {
		t.Errorf("Continue = %v", err)
	}
	if _, err := d.StepLine(nil); err != ErrNotStarted {
		t.Errorf("StepLine = %v", err)
	}
	if _, err := d.Finish(nil); err != ErrNotStarted {
		t.Errorf("Finish = %v", err)
	}
}

func TestBreakAtPCDirect(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	fn := d.Prog().FuncByName("fib")
	bp := d.BreakAtPC(fn.Entry)
	if bp.ID == 0 {
		t.Fatal("no id")
	}
	stop, err := d.Continue(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopBreakpoint {
		t.Errorf("stop = %v", stop.Reason)
	}
	if d.Machine().PC() != fn.Entry {
		t.Errorf("pc = %#x, want %#x", d.Machine().PC(), fn.Entry)
	}
	_ = isa.TextBase
}
