package dbg

import (
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/isa"
	"easytracker/internal/minic"
	"easytracker/internal/vm"
)

const fibC = `int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int r = fib(4);
    printf("%d\n", r);
    return 0;
}`

const ptrC = `int g = 7;
int main() {
    int x = 3;
    int* p = &x;
    int* bad = (int*)12345;
    int a[3] = {10, 20, 30};
    char* s = "hi";
    double d = 1.5;
    *p = 4;
    return 0;
}`

// build compiles src and starts a debugger over it.
func build(t *testing.T, src string, cfg vm.Config) *Debugger {
	t.Helper()
	prog, err := minic.Compile("prog.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	d, err := New(prog, cfg)
	if err != nil {
		t.Fatalf("dbg.New: %v", err)
	}
	return d
}

func started(t *testing.T, src string, cfg vm.Config) *Debugger {
	t.Helper()
	d := build(t, src, cfg)
	stop, err := d.Start()
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if stop.Reason != StopEntry {
		t.Fatalf("start stop = %v", stop.Reason)
	}
	return d
}

func TestStartPausesAtMainFirstLine(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	if d.CurrentLine() != 8 { // int r = fib(4);
		t.Errorf("entry line = %d, want 8", d.CurrentLine())
	}
	if fn := d.CurrentFunc(); fn == nil || fn.Name != "main" {
		t.Errorf("entry func = %v", fn)
	}
	if _, exited := d.Exited(); exited {
		t.Error("exited at entry")
	}
}

func TestStepAndNext(t *testing.T) {
	// step enters fib.
	d := started(t, fibC, vm.Config{})
	stop, err := d.StepLine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopStep || stop.Function != "fib" || stop.Line != 2 {
		t.Errorf("step landed at %s:%d (%v)", stop.Function, stop.Line, stop.Reason)
	}

	// next steps over the whole fib(4) call tree.
	var out strings.Builder
	d2 := started(t, fibC, vm.Config{Stdout: &out})
	stop, err = d2.NextLine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Function != "main" || stop.Line != 9 {
		t.Errorf("next landed at %s:%d", stop.Function, stop.Line)
	}
	// r must already hold fib(4) = 3.
	in := d2.NewInspector()
	fr := in.Frame()
	if v, _ := fr.Lookup("r").Value.Int(); v != 3 {
		t.Errorf("r = %s", fr.Lookup("r").Value)
	}
}

func TestStepToCompletion(t *testing.T) {
	var out strings.Builder
	d := started(t, fibC, vm.Config{Stdout: &out})
	steps := 0
	for {
		if _, exited := d.Exited(); exited {
			break
		}
		if _, err := d.StepLine(nil); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 500 {
			t.Fatal("too many steps")
		}
	}
	if out.String() != "3\n" {
		t.Errorf("output = %q", out.String())
	}
	if code, _ := d.Exited(); code != 0 {
		t.Errorf("exit code = %d", code)
	}
	// fib(4): enough steps to have entered the recursion.
	if steps < 20 {
		t.Errorf("only %d steps for fib(4) — stepping skipped lines?", steps)
	}
}

func TestLineBreakpoint(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	bp, err := d.BreakAtLine(3, 0) // return n
	if err != nil {
		t.Fatal(err)
	}
	stop, err := d.Continue(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopBreakpoint || stop.Breakpoint != bp.ID || stop.Line != 3 {
		t.Errorf("stop = %+v", stop)
	}
	// fib(4) reaches `return n` first with n=1 at depth 4.
	if d.Depth() != 4 {
		t.Errorf("depth = %d, want 4", d.Depth())
	}
	in := d.NewInspector()
	fr := in.Frame()
	if v, _ := fr.Lookup("n").Value.Int(); v != 1 {
		t.Errorf("n = %s", fr.Lookup("n").Value)
	}
}

func TestBreakpointMaxDepth(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	if _, err := d.BreakAtFunc("fib", 2); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for {
		stop, err := d.Continue(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stop.Reason == StopExited {
			break
		}
		hits++
		if d.Depth() >= 2 {
			t.Errorf("paused at depth %d despite maxdepth 2", d.Depth())
		}
	}
	if hits != 1 {
		t.Errorf("hits = %d, want 1 (outermost fib only)", hits)
	}
}

func TestFuncEntryAndExitBreakpoints(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	if _, err := d.BreakAtFunc("fib", 0); err != nil {
		t.Fatal(err)
	}
	exitBP, err := d.BreakAtFuncExit("fib")
	if err != nil {
		t.Fatal(err)
	}
	entries, exits := 0, 0
	var lastRet int64 = -99
	for {
		stop, err := d.Continue(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stop.Reason == StopExited {
			break
		}
		if stop.Breakpoint == exitBP.ID {
			exits++
			lastRet = int64(d.Machine().Reg(isa.A0))
		} else {
			entries++
			// Entry breakpoint: argument must be initialized.
			in := d.NewInspector()
			if in.Frame().Lookup("n") == nil {
				t.Fatal("n not inspectable at function entry")
			}
		}
	}
	if entries != 9 || exits != 9 {
		t.Errorf("entries=%d exits=%d, want 9/9 for fib(4)", entries, exits)
	}
	if lastRet != 3 {
		t.Errorf("last return value = %d, want 3", lastRet)
	}
}

// TestExitBreakpointUnwindsReturningFrame: at a return-event stop the
// epilogue has already reloaded fp with the caller's, yet the unwinder
// lists the returning frame on top of its callers, at the depth of its
// entry stop and with the argument that stop read.
func TestExitBreakpointUnwindsReturningFrame(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	entryBP, err := d.BreakAtFunc("fib", 0)
	if err != nil {
		t.Fatal(err)
	}
	exitBP, err := d.BreakAtFuncExit("fib")
	if err != nil {
		t.Fatal(err)
	}
	type activation struct {
		depth int
		n     string
	}
	var open []activation
	exits := 0
	for {
		stop, err := d.Continue(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stop.Reason == StopExited {
			break
		}
		fr := d.NewInspector().Frame()
		if fr.Name != "fib" || len(fr.Stack()) != d.Depth()+1 || fr.Lookup("n") == nil {
			t.Fatalf("stop %d: innermost frame %s, %d frames at depth %d", stop.Breakpoint, fr.Name, len(fr.Stack()), d.Depth())
		}
		got := activation{d.Depth(), fr.Lookup("n").Value.String()}
		if stop.Breakpoint == entryBP.ID {
			open = append(open, got)
			continue
		}
		if stop.Breakpoint != exitBP.ID || len(open) == 0 {
			t.Fatalf("unexpected stop %+v", stop)
		}
		exits++
		if want := open[len(open)-1]; got != want {
			t.Errorf("exit %d: depth %d with n = %s, want the entry's depth %d with n = %s", exits, got.depth, got.n, want.depth, want.n)
		}
		open = open[:len(open)-1]
	}
	if exits != 9 || len(open) != 0 {
		t.Errorf("%d exits, %d activations left open; want 9 and 0", exits, len(open))
	}
}

func TestExitBreakpointFindsAllRets(t *testing.T) {
	// The compiler emits a single epilogue, so one RET per function.
	d := build(t, fibC, vm.Config{})
	bp, err := d.BreakAtFuncExit("fib")
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.PCs) != 1 {
		t.Errorf("fib exit breakpoints = %d, want 1 (single epilogue)", len(bp.PCs))
	}
	if _, err := d.BreakAtFuncExit("nosuch"); err == nil {
		t.Error("exit breakpoint on unknown function succeeded")
	}
}

func TestWatchGlobal(t *testing.T) {
	src := `int count = 0;
int main() {
    for (int i = 0; i < 3; i++) {
        count += 10;
    }
    return 0;
}`
	d := started(t, src, vm.Config{})
	w, err := d.WatchGlobal("count", false)
	if err != nil {
		t.Fatal(err)
	}
	var news []uint64
	for {
		stop, err := d.Continue(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stop.Reason == StopExited {
			break
		}
		if stop.Reason != StopWatch || stop.Watch.ID != w.ID {
			t.Fatalf("unexpected stop %+v", stop)
		}
		news = append(news, leU64(stop.Watch.New))
	}
	want := []uint64{10, 20, 30}
	if len(news) != len(want) {
		t.Fatalf("watch fired %d times: %v", len(news), news)
	}
	for i := range want {
		if news[i] != want[i] {
			t.Errorf("hit %d: new = %d, want %d", i, news[i], want[i])
		}
	}
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestWatchLocal(t *testing.T) {
	src := `int main() {
    int x = 1;
    x = 2;
    x = 3;
    return x;
}`
	d := started(t, src, vm.Config{})
	if _, err := d.WatchLocal("main", "x"); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for {
		stop, err := d.Continue(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stop.Reason == StopExited {
			break
		}
		hits++
	}
	if hits != 3 {
		t.Errorf("watch hits = %d, want 3", hits)
	}
	if _, err := d.WatchLocal("main", "nope"); err == nil {
		t.Error("watch on unknown local succeeded")
	}
}

func TestInternalWatchNotReported(t *testing.T) {
	src := `int g = 0;
int main() {
    g = 1;
    g = 2;
    return 0;
}`
	d := started(t, src, vm.Config{})
	w, err := d.WatchGlobal("g", true)
	if err != nil {
		t.Fatal(err)
	}
	internal := 0
	stop, err := d.Continue(func(wp *Watchpoint, hit *vm.WatchHit) {
		if wp.ID == w.ID {
			internal++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopExited {
		t.Errorf("stop = %v, want exit (internal watch must not pause)", stop.Reason)
	}
	if internal != 2 {
		t.Errorf("internal callbacks = %d, want 2", internal)
	}
}

func TestUnwindAndDepth(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	if _, err := d.BreakAtLine(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	recs := d.Unwind()
	// fib fib fib fib main
	if len(recs) != 5 {
		t.Fatalf("unwound %d frames", len(recs))
	}
	for i := 0; i < 4; i++ {
		if recs[i].Fn.Name != "fib" {
			t.Errorf("frame %d = %s", i, recs[i].Fn.Name)
		}
	}
	if recs[4].Fn.Name != "main" {
		t.Errorf("outermost = %s", recs[4].Fn.Name)
	}
	// Frame chain with core conversion.
	fr := d.NewInspector().Frame()
	if fr.Depth != 4 {
		t.Errorf("innermost depth = %d", fr.Depth)
	}
	stack := fr.Stack()
	if stack[len(stack)-1].Name != "main" || stack[len(stack)-1].Depth != 0 {
		t.Errorf("outermost frame: %v", stack[len(stack)-1])
	}
	// Each fib frame has its own n: 1, 2, 3, 4.
	for i, want := range []int64{1, 2, 3, 4} {
		if v, _ := stack[i].Lookup("n").Value.Int(); v != want {
			t.Errorf("frame %d n = %s, want %d", i, stack[i].Lookup("n").Value, want)
		}
	}
}

func TestInspectionValues(t *testing.T) {
	d := started(t, ptrC, vm.Config{})
	// Run to the last line so everything is initialized.
	if _, err := d.BreakAtLine(10, 0); err != nil { // return 0;
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	in := d.NewInspector()
	fr := in.Frame()

	x := fr.Lookup("x").Value
	if x.Kind != core.Primitive || x.Location != core.LocStack {
		t.Errorf("x = %+v", x)
	}
	if v, _ := x.Int(); v != 4 {
		t.Errorf("x = %s (want 4, set through *p)", x)
	}
	if x.LanguageType != "int" {
		t.Errorf("x language type = %q", x.LanguageType)
	}

	p := fr.Lookup("p").Value
	if p.Kind != core.Ref {
		t.Fatalf("p = %+v", p)
	}
	if p.Deref() != x {
		t.Error("p does not alias x in the snapshot (identity lost)")
	}

	bad := fr.Lookup("bad").Value
	if bad.Kind != core.Invalid {
		t.Errorf("bad pointer kind = %v, want INVALID", bad.Kind)
	}

	a := fr.Lookup("a").Value
	if a.Kind != core.List || len(a.Elems()) != 3 {
		t.Fatalf("a = %s", a)
	}
	if v, _ := a.Elems()[1].Int(); v != 20 {
		t.Errorf("a[1] = %s", a.Elems()[1])
	}
	if a.LanguageType != "int[3]" {
		t.Errorf("a language type = %q", a.LanguageType)
	}

	s := fr.Lookup("s").Value
	if s.Kind != core.Primitive || s.LanguageType != "char*" {
		t.Fatalf("s = %+v", s)
	}
	if str, _ := s.Str(); str != "hi" {
		t.Errorf("s = %q", str)
	}

	dv := fr.Lookup("d").Value
	if f, ok := dv.Float(); !ok || f != 1.5 {
		t.Errorf("d = %s", dv)
	}

	// Global g.
	var g *core.Value
	for _, gv := range in.Globals(false) {
		if gv.Name == "g" {
			g = gv.Value
		}
	}
	if g == nil || g.Location != core.LocGlobal {
		t.Fatalf("g = %+v", g)
	}
	if v, _ := g.Int(); v != 7 {
		t.Errorf("g = %s", g)
	}
}

func TestScopeVisibility(t *testing.T) {
	src := `int main() {
    int x = 1;
    {
        int y = 2;
        x = y;
    }
    x = 9;
    return 0;
}`
	d := started(t, src, vm.Config{})
	// At entry, neither x nor y declared yet.
	fr := d.NewInspector().Frame()
	if fr.Lookup("y") != nil {
		t.Error("y visible before its block")
	}
	// Break inside block.
	if _, err := d.BreakAtLine(5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	fr = d.NewInspector().Frame()
	if fr.Lookup("y") == nil || fr.Lookup("x") == nil {
		t.Errorf("x/y not visible inside block: %s", fr.Backtrace())
	}
	// After block.
	if _, err := d.BreakAtLine(7, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	fr = d.NewInspector().Frame()
	if fr.Lookup("y") != nil {
		t.Error("y visible after its block closed")
	}
}

func TestHeapMapExpandsArrays(t *testing.T) {
	src := `int main() {
    int* xs = (int*)malloc(3 * sizeof(int));
    xs[0] = 5;
    xs[1] = 6;
    xs[2] = 7;
    return 0;
}`
	d := started(t, src, vm.Config{})
	if _, err := d.BreakAtLine(6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	in := d.NewInspector()
	fr := in.Frame()
	xs := fr.Lookup("xs").Value

	// Without a heap map, GDB-style inspection sees a plain int*.
	if xs.Kind != core.Ref {
		t.Fatalf("xs = %+v", xs)
	}
	if xs.Deref().Kind != core.Primitive {
		t.Errorf("without heap map, *xs = %v (want single int)", xs.Deref().Kind)
	}

	// With the interposition-derived map, the same pointer expands.
	target, _ := xs.Deref().Int()
	_ = target
	ptr := xs.Deref().Address
	d.SetHeapMap(map[uint64]uint64{ptr: 24})
	fr = d.NewInspector().Frame()
	xs = fr.Lookup("xs").Value
	arr := xs.Deref()
	if arr.Kind != core.List || len(arr.Elems()) != 3 {
		t.Fatalf("with heap map xs -> %s", arr)
	}
	if v, _ := arr.Elems()[2].Int(); v != 7 {
		t.Errorf("xs[2] = %s", arr.Elems()[2])
	}
	if arr.Location != core.LocHeap {
		t.Errorf("heap array location = %v", arr.Location)
	}
}

// TestInspectorIdentity pins both halves of the inspector's memo key, an
// address and a type: two pointers to one tracked heap block share one List
// Value, while a struct and its first field share an address but not a type
// and stay two Values.
func TestInspectorIdentity(t *testing.T) {
	src := `struct pt { int x; int y; };
int main() {
    int* a = (int*)malloc(3 * sizeof(int));
    int* b = a;
    struct pt s;
    int* px = &s.x;
    struct pt* ps = &s;
    s.x = 1;
    return 0;
}`
	d := started(t, src, vm.Config{})
	if _, err := d.BreakAtLine(9, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	fr := d.NewInspector().Frame()
	d.SetHeapMap(map[uint64]uint64{fr.Lookup("a").Value.Deref().Address: 24})
	fr = d.NewInspector().Frame()
	arr := fr.Lookup("a").Value.Deref()
	if arr.Kind != core.List || arr.LanguageType != "int[3]" {
		t.Fatalf("a -> %s (%s)", arr, arr.LanguageType)
	}
	if b := fr.Lookup("b").Value.Deref(); b != arr {
		t.Error("a and b point at one block but reach two Values")
	}
	s := fr.Lookup("s").Value
	x := s.FieldByName("x")
	if s.Address != x.Address {
		t.Fatalf("s at %#x, s.x at %#x", s.Address, x.Address)
	}
	if x == s {
		t.Error("s and s.x share an address and became one Value")
	}
	if px := fr.Lookup("px").Value.Deref(); px != x {
		t.Errorf("px -> %s (%s), want the Value of s.x", px, px.LanguageType)
	}
	if ps := fr.Lookup("ps").Value.Deref(); ps != s {
		t.Errorf("ps -> %s (%s), want the Value of s", ps, ps.LanguageType)
	}
}

func TestLinkedListCycleSafe(t *testing.T) {
	src := `struct node { int v; struct node* next; };
int main() {
    struct node a;
    struct node b;
    a.v = 1;
    b.v = 2;
    a.next = &b;
    b.next = &a;
    return 0;
}`
	d := started(t, src, vm.Config{})
	if _, err := d.BreakAtLine(9, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	fr := d.NewInspector().Frame()
	a := fr.Lookup("a").Value
	if a.Kind != core.Struct {
		t.Fatalf("a = %+v", a)
	}
	next := a.FieldByName("next")
	if next.Kind != core.Ref {
		t.Fatalf("a.next = %+v", next)
	}
	b := next.Deref()
	back := b.FieldByName("next").Deref()
	if back != a {
		t.Error("cycle lost: b.next does not point back to a's Value")
	}
	// Rendering a cyclic state must terminate.
	_ = a.String()
}

func TestFaultReporting(t *testing.T) {
	src := `int main() {
    int* p = 0;
    return *p;
}`
	d := started(t, src, vm.Config{})
	stop, err := d.Continue(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopFault || !strings.Contains(stop.Fault, "segmentation") {
		t.Errorf("stop = %+v", stop)
	}
	if code, exited := d.Exited(); !exited || code != 139 {
		t.Errorf("exit = %d, %v", code, exited)
	}
	if _, err := d.Continue(nil); err != ErrExited {
		t.Errorf("Continue after fault = %v", err)
	}
}

// TestFramesAfterExit: after the exit service no frame is alive, while
// the globals stay readable; a fault keeps the frame it faulted in.
func TestFramesAfterExit(t *testing.T) {
	d := started(t, ptrC, vm.Config{})
	if stop, err := d.Continue(nil); err != nil || stop.Reason != StopExited {
		t.Fatalf("Continue = %+v, %v", stop, err)
	}
	st := d.State()
	if st.Frame != nil || d.Depth() != -1 || len(st.Globals) == 0 {
		t.Errorf("after the exit: frame %+v, depth %d, %d globals", st.Frame, d.Depth(), len(st.Globals))
	}
	d = started(t, "int main() {\n    int* p = 0;\n    return *p;\n}", vm.Config{})
	if stop, err := d.Continue(nil); err != nil || stop.Reason != StopFault {
		t.Fatalf("Continue = %+v, %v", stop, err)
	}
	if fr := d.State().Frame; fr == nil || fr.Name != "main" || fr.Lookup("p") == nil {
		t.Errorf("after the fault: frame %+v", fr)
	}
}

func TestExitCode(t *testing.T) {
	d := started(t, "int main() { return 5; }", vm.Config{})
	stop, err := d.Continue(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopExited || stop.ExitCode != 5 {
		t.Errorf("stop = %+v", stop)
	}
}

func TestStateSnapshot(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	if _, err := d.BreakAtLine(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	st := d.State()
	if st.Frame == nil || st.Frame.Name != "fib" {
		t.Fatalf("state frame = %v", st.Frame)
	}
	data, err := st.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back core.State
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !back.Frame.Equal(st.Frame) {
		t.Error("state did not survive the pipe format")
	}
}

func TestBreakpointRemoval(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	bp, err := d.BreakAtFunc("fib", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(nil); err != nil {
		t.Fatal(err)
	}
	d.RemoveBreakpoint(bp.ID)
	stop, err := d.Continue(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != StopExited {
		t.Errorf("after removal stop = %v", stop.Reason)
	}
}

func TestRegistersAndMemoryAccess(t *testing.T) {
	d := started(t, fibC, vm.Config{})
	regs := d.Machine().Registers()
	if regs[isa.SP] == 0 || regs[isa.FP] == 0 {
		t.Error("sp/fp zero at entry")
	}
	segs := d.Machine().Segments()
	if len(segs) != 4 {
		t.Errorf("segments = %v", segs)
	}
	b, err := d.Machine().ReadMem(isa.TextBase, 8)
	if err != nil || len(b) != 8 {
		t.Errorf("text read: %v", err)
	}
}
