// Benchmark harness: one benchmark per figure and table of the paper's
// evaluation (Section III and IV), plus the performance characteristics the
// paper states qualitatively (Section II-C2 and V): line-granular control
// costs orders of magnitude over native execution, watchpoint-driven resume
// degrades to internal single-stepping, and partial traces are ~10x smaller
// than full ones.
//
// Run with: go test -bench=. -benchmem
package easytracker_test

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"easytracker"
	"easytracker/internal/core"
	"easytracker/internal/game"
	"easytracker/internal/gdbtracker"
	"easytracker/internal/mi"
	"easytracker/internal/minic"
	"easytracker/internal/minipy"
	"easytracker/internal/pt"
	"easytracker/internal/pytracker"
	"easytracker/internal/tables"
	"easytracker/internal/viz"
	"easytracker/internal/vm"
)

// ---- shared programs ----

const sortPy = `def insertion_sort(a):
    i = 1
    while i < len(a):
        j = i
        while j > 0 and a[j - 1] > a[j]:
            a[j - 1], a[j] = a[j], a[j - 1]
            j = j - 1
        i = i + 1
    return a

data = [5, 2, 9, 1, 7, 3, 8, 4]
insertion_sort(data)
print(data)
`

const fibPy = `def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

x = fib(10)
print(x)
`

const fibC = `int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int r = fib(10);
    printf("%d\n", r);
    return 0;
}`

const heapC = `struct node {
    int v;
    struct node* next;
};
int main() {
    int* xs = (int*)malloc(4 * sizeof(int));
    xs[0] = 1;
    xs[1] = 2;
    xs[2] = 3;
    xs[3] = 4;
    struct node* head = 0;
    for (int i = 0; i < 3; i++) {
        struct node* n = (struct node*)malloc(sizeof(struct node));
        n->v = xs[i];
        n->next = head;
        head = n;
    }
    return 0;
}`

const memAsm = `    .data
vals: .word 11, 22, 33, 44
    .text
    .global main
main:
    la t0, vals
    li t1, 0
    li t2, 0
loop:
    ld t3, 0(t0)
    add t1, t1, t3
    addi t0, t0, 8
    addi t2, t2, 1
    blt t2, zero, loop
    li a0, 0
    li a7, 0
    ecall
`

func mustTracker(b *testing.B, kind, path, src string, opts ...easytracker.LoadOption) easytracker.Tracker {
	b.Helper()
	tr, err := easytracker.New(kind)
	if err != nil {
		b.Fatal(err)
	}
	opts = append(opts, easytracker.WithSource(src))
	if err := tr.LoadProgram(path, opts...); err != nil {
		b.Fatal(err)
	}
	return tr
}

// mustState fetches the full snapshot through the capability API.
func mustState(b *testing.B, tr easytracker.Tracker) *easytracker.State {
	b.Helper()
	sp, ok := easytracker.As[easytracker.StateProvider](tr)
	if !ok {
		b.Fatal("tracker does not provide state snapshots")
	}
	st, err := sp.State()
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// ---- Figure 1: loop-invariant array view of a sort ----

func BenchmarkFig1LoopInvariant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := mustTracker(b, "minipy", "sort.py", sortPy)
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		images := 0
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			fr, err := tr.CurrentFrame()
			if err != nil {
				b.Fatal(err)
			}
			if fr.Name == "insertion_sort" {
				if a := fr.Lookup("a"); a != nil {
					doc := viz.ArraySVG(a.Value.Deref(), viz.ArrayViewOptions{
						Title: "invariant", SortedFrom: -1, SortedTo: 2,
					})
					if len(doc) == 0 {
						b.Fatal("empty image")
					}
					images++
				}
			}
			if err := tr.Step(); err != nil {
				b.Fatal(err)
			}
		}
		if images == 0 {
			b.Fatal("no images generated")
		}
		b.ReportMetric(float64(images), "images/op")
		tr.Terminate()
	}
}

// ---- Figure 3: the serializable state model ----

func BenchmarkFig3StateSerialize(b *testing.B) {
	tr := mustTracker(b, "minigdb", "heap.c", heapC, easytracker.WithHeapTracking())
	if err := tr.Start(); err != nil {
		b.Fatal(err)
	}
	defer tr.Terminate()
	if err := tr.BreakBeforeLine("", 16); err != nil {
		b.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		b.Fatal(err)
	}
	st := mustState(b, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(st)
		if err != nil {
			b.Fatal(err)
		}
		var back core.State
		if err := json.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// BenchmarkStateDecodeGolden decodes each of internal/core's golden State
// documents once per op with State.UnmarshalJSON: the codec's decode alone,
// with no pipe, wire or re-scan around it.
func BenchmarkStateDecodeGolden(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("internal", "core", "testdata", "golden", "*.json"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no golden documents: %v", err)
	}
	var docs [][]byte
	size := 0
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, doc)
		size += len(doc)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, doc := range docs {
			var st core.State
			if err := st.UnmarshalJSON(doc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Figure 4: the MI pipe between tracker and MiniGDB ----

func BenchmarkFig4MIRoundTrip(b *testing.B) {
	prog, err := minic.Compile("fib.c", fibC)
	if err != nil {
		b.Fatal(err)
	}
	cl := mi.NewClient(mi.Connect(mi.NewServer(prog)))
	defer cl.Close()
	if _, err := cl.Send("-exec-run"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Send("-data-list-register-values", "x"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 5: tool-goroutine / inferior-goroutine handoff ----

func BenchmarkFig5ThreadHandoff(b *testing.B) {
	// Each Step is one wake -> execute-line -> pause handoff through the
	// channel pair, the Go equivalent of the paper's wait/wake diagram.
	src := "i = 0\nwhile True:\n    i = i + 1\n"
	tr := pytracker.New()
	if err := tr.LoadProgram("loop.py", core.WithSource(src)); err != nil {
		b.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		b.Fatal(err)
	}
	defer tr.Terminate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 6: stack and stack-and-heap diagrams ----

func benchStackHeap(b *testing.B, kind, path, src string, mode viz.DiagramMode, heapTrack bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var opts []easytracker.LoadOption
		if heapTrack {
			opts = append(opts, easytracker.WithHeapTracking())
		}
		tr := mustTracker(b, kind, path, src, opts...)
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		images := 0
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			st := mustState(b, tr)
			doc := viz.StackHeapSVG(st, viz.StackHeapOptions{Mode: mode, ShowGlobals: true})
			if len(doc) == 0 {
				b.Fatal("empty diagram")
			}
			images++
			if err := tr.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(images), "images/op")
		tr.Terminate()
	}
}

func BenchmarkFig6aStackDiagramPy(b *testing.B) {
	benchStackHeap(b, "minipy", "fib.py", strings.Replace(fibPy, "fib(10)", "fib(4)", 1), viz.StackOnly, false)
}

func BenchmarkFig6bStackHeapPy(b *testing.B) {
	src := `xs = [1, 2]
ys = xs
d = {"k": xs}
xs.append(3)
print(len(ys))
`
	benchStackHeap(b, "minipy", "alias.py", src, viz.StackAndHeap, false)
}

func BenchmarkFig6cStackHeapC(b *testing.B) {
	benchStackHeap(b, "minigdb", "heap.c", heapC, viz.StackAndHeap, true)
}

// ---- Figure 7: registers and memory viewer ----

func BenchmarkFig7MemView(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := mustTracker(b, "minigdb", "mem.s", memAsm)
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		regInsp, ok := easytracker.As[easytracker.RegisterInspector](tr)
		if !ok {
			b.Fatal("tracker does not expose registers")
		}
		memInsp, ok := easytracker.As[easytracker.MemoryInspector](tr)
		if !ok {
			b.Fatal("tracker does not expose raw memory")
		}
		frames := 0
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			regs, err := regInsp.Registers()
			if err != nil {
				b.Fatal(err)
			}
			var segs []easytracker.Segment
			for _, sg := range memInsp.MemorySegments() {
				if sg.Name == "data" {
					segs = append(segs, sg)
				}
			}
			doc := viz.MemViewSVG(regs, memInsp, viz.MemViewOptions{
				Segments: segs, MaxWords: 8,
			})
			if len(doc) == 0 {
				b.Fatal("empty view")
			}
			frames++
			if err := tr.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(frames), "frames/op")
		tr.Terminate()
	}
}

// ---- Figure 8: recursive call tree ----

func BenchmarkFig8RecTree(b *testing.B) {
	b.ReportAllocs()
	src := strings.Replace(fibPy, "fib(10)", "fib(6)", 1)
	for i := 0; i < b.N; i++ {
		tr := mustTracker(b, "minipy", "fib.py", src)
		if err := tr.TrackFunction("fib"); err != nil {
			b.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		var root, current *viz.CallNode
		parents := map[*viz.CallNode]*viz.CallNode{}
		uid, images := 0, 0
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			if err := tr.Resume(); err != nil {
				b.Fatal(err)
			}
			switch r := tr.PauseReason(); r.Type {
			case easytracker.PauseCall:
				uid++
				if current == nil {
					root = &viz.CallNode{UID: uid, Label: "fib", Active: true}
					current = root
				} else {
					c := current.AddChild(uid, "fib")
					parents[c] = current
					current = c
				}
				if doc := viz.CallTreeSVG(root); len(doc) == 0 {
					b.Fatal("empty tree")
				}
				images++
			case easytracker.PauseReturn:
				if current != nil {
					current.Active = false
					if r.ReturnValue != nil {
						current.RetVal = r.ReturnValue.String()
					}
					current = parents[current]
				}
			}
		}
		b.ReportMetric(float64(images), "images/op")
		tr.Terminate()
	}
}

// ---- Figure 9: the debugging game ----

func BenchmarkFig9GameLevel(b *testing.B) {
	engine, err := game.NewEngine(game.Level1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buggy, err := engine.Play("")
		if err != nil {
			b.Fatal(err)
		}
		if buggy.Won {
			b.Fatal("buggy level won")
		}
		fixed, err := engine.Play(game.Level1Fixed)
		if err != nil {
			b.Fatal(err)
		}
		if !fixed.Won {
			b.Fatal("fixed level lost")
		}
	}
}

// ---- Figure 10: trace export and the partial-trace reduction ----

func BenchmarkFig10TraceExport(b *testing.B) {
	b.ReportAllocs()
	src := `def fib(n):
    acc = 0
    k = 0
    while k < 4:
        acc = acc + k
        k = k + 1
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

x = fib(6)
print(x)
`
	for i := 0; i < b.N; i++ {
		record := func(mode pt.Mode, fns []string) *pt.Trace {
			tr := pytracker.New()
			var out strings.Builder
			if err := tr.LoadProgram("fib.py", core.WithSource(src), core.WithStdout(&out)); err != nil {
				b.Fatal(err)
			}
			trace, err := pt.Record(tr, &out, pt.Options{Mode: mode, TrackFunctions: fns})
			if err != nil {
				b.Fatal(err)
			}
			return trace
		}
		full := record(pt.ModeFullStep, nil)
		partial := record(pt.ModeTracked, []string{"fib"})
		fullJSON, _ := full.Encode()
		partialJSON, _ := partial.Encode()
		factor := float64(len(fullJSON)) / float64(len(partialJSON))
		if factor < 2 {
			b.Fatalf("reduction factor %.1f", factor)
		}
		b.ReportMetric(factor, "size-reduction-x")
		b.ReportMetric(float64(len(full.Steps))/float64(len(partial.Steps)), "step-reduction-x")
	}
}

// ---- Tables I-III: regeneration ----

func BenchmarkTablesIThroughIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tab := range []*tables.Table{tables.TableI(), tables.TableII(), tables.TableIII()} {
			if out := tab.Render(); len(out) == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

// ---- performance claims: control overhead (paper II-C2, V) ----

// BenchmarkNativeMiniPy is the uncontrolled interpreter baseline.
func BenchmarkNativeMiniPy(b *testing.B) {
	mod, err := minipy.Parse("fib.py", fibPy)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := minipy.NewInterp(mod)
		if _, err := in.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileMiniPy prices the bytecode compiler alone: one AST -> Program
// lowering per iteration (parse is hoisted out, matching how the interpreter
// amortizes compilation across runs via the per-module memo).
func BenchmarkCompileMiniPy(b *testing.B) {
	mod, err := minipy.Parse("fib.py", fibPy)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := minipy.Compile(mod); p == nil {
			b.Fatal("nil program")
		}
	}
}

// BenchmarkSteppingOverheadMiniPy runs the same program stepped line by
// line through the tracker (the paper: stepping "slows the execution down a
// lot" but is acceptable in the pedagogical context).
func BenchmarkSteppingOverheadMiniPy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := mustTracker(b, "minipy", "fib.py", fibPy)
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		steps := 0
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			if err := tr.Step(); err != nil {
				b.Fatal(err)
			}
			steps++
		}
		b.ReportMetric(float64(steps), "lines/op")
		tr.Terminate()
	}
}

// BenchmarkResumeWithWatchpointMiniPy measures resume when a watchpoint
// forces internal line-by-line comparison. It runs the default
// configuration, so it is also the off path of observability, span tracing
// and recording: et-benchdiff's allocs/op gate on it holds each of them to
// one pointer test and zero allocations until a session opts in.
func BenchmarkResumeWithWatchpointMiniPy(b *testing.B) { benchWatchResume(b) }

// BenchmarkStateAcrossPausesMiniPy prices State conversion across pauses
// (DESIGN.md §19). One op is a 100-pause session: a watch on a scalar, a
// 1000-element global list written at every 10th pause, and CurrentFrame
// at every pause. The session converter updates the previous snapshot, so
// the unchanged list costs nothing and a written one costs a slot-slice
// copy; converting the list again at every pause costs ~1,000 allocations
// a pause.
func BenchmarkStateAcrossPausesMiniPy(b *testing.B) {
	b.ReportAllocs()
	src := "data = list(range(1000))\nw = 0\nwhile w < 99:\n    w = w + 1\n    if w % 10 == 0:\n        data[w] = w + 1000\n"
	for i := 0; i < b.N; i++ {
		tr := mustTracker(b, "minipy", "p.py", src)
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		if err := tr.Watch("::w"); err != nil {
			b.Fatal(err)
		}
		pauses := 0
		for {
			if err := tr.Resume(); err != nil {
				b.Fatal(err)
			}
			if _, done := tr.ExitCode(); done {
				break
			}
			if _, err := tr.CurrentFrame(); err != nil {
				b.Fatal(err)
			}
			pauses++
		}
		if pauses != 100 {
			b.Fatalf("%d pauses, want 100", pauses)
		}
		tr.Terminate()
	}
}

// BenchmarkConditionalBreakMiniPy prices the conditional-probe fast path
// (DESIGN.md §14's cost model): a breakpoint on the hot loop line whose
// condition is false for 199 of the 200 hits, so the line hook compiles
// nothing, pauses once, and must evaluate the condition allocation-free on
// every miss. allocs/op is therefore the fixed lifecycle cost — any term
// that scaled with the 200 evaluations would blow through et-benchdiff's
// gate against the committed baseline.
func BenchmarkConditionalBreakMiniPy(b *testing.B) {
	b.ReportAllocs()
	src := "total = 0\nk = 0\nwhile k < 200:\n    k = k + 1\ntotal = 1\n"
	for i := 0; i < b.N; i++ {
		tr := mustTracker(b, "minipy", "w.py", src)
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		if err := tr.BreakBeforeLine("", 4, easytracker.When("k == 199")); err != nil {
			b.Fatal(err)
		}
		pauses := 0
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			if err := tr.Resume(); err != nil {
				b.Fatal(err)
			}
			pauses++
		}
		if pauses != 2 { // the k == 199 hit, then the exit resume
			b.Fatalf("pauses = %d, want 2", pauses)
		}
		tr.Terminate()
	}
}

// BenchmarkBudgetCheckOverhead is BenchmarkResumeWithWatchpointMiniPy's
// workload with every supervision budget armed (high enough never to trip)
// plus a generous execution deadline. The per-line supervision check —
// interrupt flag load + three budget comparisons — must be allocation-free:
// allocs/op may exceed the unarmed benchmark only by the constant
// setup cost (arming the deadline timer per resume), never by a term that
// scales with the ~200 executed lines. et-benchdiff gates both benchmarks
// against the committed baseline.
func BenchmarkBudgetCheckOverhead(b *testing.B) {
	benchWatchResume(b,
		easytracker.WithBudgets(easytracker.Budgets{
			MaxSteps:       1 << 40,
			MaxDepth:       1 << 20,
			MaxHeapObjects: 1 << 40,
		}),
		easytracker.WithExecutionTimeout(time.Hour))
}

// BenchmarkRemoteRoundTrip is BenchmarkResumeWithWatchpointMiniPy's workload
// driven through a loopback et-serve session: one full client lifecycle
// (connect, load, watch, resume to exit, terminate) per iteration, so the
// delta against the local benchmark is the price of the wire — framing,
// JSON codecs and the per-request round trips.
func BenchmarkRemoteRoundTrip(b *testing.B) {
	benchRemoteSession(b)
}

// BenchmarkRedialOverheadOff is BenchmarkRemoteRoundTrip with the redial
// policy armed but the network healthy: the fault-tolerance machinery's
// price on the fast path. The allocs/op gate holds it to the fault-free
// number — resilience must cost nothing until a fault actually happens.
func BenchmarkRedialOverheadOff(b *testing.B) {
	benchRemoteSession(b, easytracker.WithRedialPolicy(easytracker.DefaultRedialPolicy()))
}

// inspectPy is a tutor-style program: a function call, a growing list and a
// dict of lists, so every pause has frames and containers to show.
const inspectPy = `def score(i, best):
    s = i * 7 % 10
    if s > best:
        return s
    return best

xs = []
seen = {"even": [], "odd": []}
best = 0
i = 0
while i < 8:
    xs.append(i * i)
    if i % 2 == 0:
        seen["even"].append(i)
    else:
        seen["odd"].append(i)
    best = score(i, best)
    i = i + 1
`

// BenchmarkRemoteInspectMiniPy is the paper's Listing 1 over the wire: one
// loopback session per iteration (connect, load, start, then State and Step
// at every pause to the exit, terminate). It is the gated benchmark that
// reads remote States, so it prices both the State's framing and the round
// trips an inspected pause costs.
func BenchmarkRemoteInspectMiniPy(b *testing.B) {
	b.ReportAllocs()
	srv := easytracker.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := easytracker.Connect(addr, "minipy")
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.LoadProgram("inspect.py", easytracker.WithSource(inspectPy)); err != nil {
			b.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			if _, err := tr.State(); err != nil {
				b.Fatal(err)
			}
			if err := tr.Step(); err != nil {
				b.Fatal(err)
			}
		}
		tr.Terminate()
		tr.Close()
	}
}

// benchRemoteSession runs one full client lifecycle (connect, load, watch,
// resume to exit, terminate) per iteration with caller-chosen load options.
func benchRemoteSession(b *testing.B, opts ...easytracker.LoadOption) {
	b.ReportAllocs()
	srv := easytracker.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()
	src := "total = 0\nk = 0\nwhile k < 200:\n    k = k + 1\ntotal = 1\n"
	loadOpts := append([]easytracker.LoadOption{easytracker.WithSource(src)}, opts...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := easytracker.Connect(addr, "minipy")
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.LoadProgram("w.py", loadOpts...); err != nil {
			b.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		if err := tr.Watch("::total"); err != nil {
			b.Fatal(err)
		}
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			if err := tr.Resume(); err != nil {
				b.Fatal(err)
			}
		}
		tr.Terminate()
		tr.Close()
	}
}

// benchWatchResume is one session per op: a watch on a global of a
// 200-iteration loop, resumed to the exit, under caller-chosen load
// options. With none it is BenchmarkResumeWithWatchpointMiniPy; each On
// benchmark passes the option that turns one instrument on, pricing it on
// the hottest path (per-line watch sweeps).
func benchWatchResume(b *testing.B, opts ...easytracker.LoadOption) {
	b.ReportAllocs()
	src := "total = 0\nk = 0\nwhile k < 200:\n    k = k + 1\ntotal = 1\n"
	for i := 0; i < b.N; i++ {
		tr := mustTracker(b, "minipy", "w.py", src, opts...)
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		if err := tr.Watch("::total"); err != nil {
			b.Fatal(err)
		}
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			if err := tr.Resume(); err != nil {
				b.Fatal(err)
			}
		}
		tr.Terminate()
	}
}

// BenchmarkObsOverheadOn prices full instrumentation: op timers, per-line
// watch-check latencies, counters and the flight recorder.
func BenchmarkObsOverheadOn(b *testing.B) {
	benchWatchResume(b, easytracker.WithObservability())
}

// BenchmarkSpanOverheadOn prices span tracing: one record allocation and a
// lock-free ring publish per completed tracker operation.
func BenchmarkSpanOverheadOn(b *testing.B) {
	benchWatchResume(b, easytracker.WithObservability(easytracker.WithSpanTracing(256)))
}

// BenchmarkNativeMiniC is the raw machine baseline.
func BenchmarkNativeMiniC(b *testing.B) {
	prog, err := minic.Compile("fib.c", fibC)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if stop := m.Run(0); stop.Kind != vm.StopExit {
			b.Fatalf("stop %v", stop.Kind)
		}
		b.ReportMetric(float64(m.Steps()), "instructions/op")
	}
}

// BenchmarkSteppingOverheadMiniC steps the compiled program line by line
// through the full MI pipe.
func BenchmarkSteppingOverheadMiniC(b *testing.B) {
	b.ReportAllocs()
	src := strings.Replace(fibC, "fib(10)", "fib(8)", 1)
	for i := 0; i < b.N; i++ {
		tr := gdbtracker.New()
		if err := tr.LoadProgram("fib.c", core.WithSource(src)); err != nil {
			b.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		steps := 0
		for {
			if _, done := tr.ExitCode(); done {
				break
			}
			if err := tr.Step(); err != nil {
				b.Fatal(err)
			}
			steps++
		}
		b.ReportMetric(float64(steps), "lines/op")
		tr.Terminate()
	}
}

// BenchmarkTrackFunctionMiniC tracks fib in fib(8) through the full MI
// pipe and resumes through every CALL and RETURN pause to exit, reading no
// State: a RETURN pause costs its one -exec-continue, since the return
// value rides the *stopped record.
func BenchmarkTrackFunctionMiniC(b *testing.B) {
	b.ReportAllocs()
	src := strings.Replace(fibC, "fib(10)", "fib(8)", 1)
	for i := 0; i < b.N; i++ {
		tr := gdbtracker.New()
		if err := tr.LoadProgram("fib.c", core.WithSource(src)); err != nil {
			b.Fatal(err)
		}
		if err := tr.Start(); err != nil {
			b.Fatal(err)
		}
		if err := tr.TrackFunction("fib"); err != nil {
			b.Fatal(err)
		}
		pauses := 0
		for {
			if err := tr.Resume(); err != nil {
				b.Fatal(err)
			}
			if _, done := tr.ExitCode(); done {
				break
			}
			pauses++
		}
		b.ReportMetric(float64(pauses), "pauses/op")
		tr.Terminate()
	}
}

// BenchmarkMIInspectState measures the cost of one full state transfer
// across the pipe (serialize in the server, parse in the tracker).
func BenchmarkMIInspectState(b *testing.B) {
	tr := gdbtracker.New()
	if err := tr.LoadProgram("heap.c", core.WithSource(heapC), core.WithHeapTracking()); err != nil {
		b.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		b.Fatal(err)
	}
	defer tr.Terminate()
	if err := tr.BreakBeforeLine("", 16); err != nil {
		b.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Step alternately to invalidate the cached snapshot.
		if i%2 == 0 {
			if _, err := tr.State(); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := tr.CurrentFrame(); err != nil {
				b.Fatal(err)
			}
		}
		tr.InvalidateStateCache()
	}
}

// sanity check that benchmark programs behave.
func TestBenchProgramsRun(t *testing.T) {
	var out strings.Builder
	tr, err := easytracker.New("minipy")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadProgram("fib.py", easytracker.WithSource(fibPy), easytracker.WithStdout(&out)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, done := tr.ExitCode(); done {
			break
		}
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	if out.String() != "55\n" {
		t.Errorf("fib(10) output = %q", out.String())
	}
	fmt.Fprint(&out, "")
}
