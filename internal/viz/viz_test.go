package viz

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/gdbtracker"
	"easytracker/internal/pytracker"
)

// validSVG asserts the document is well-formed XML.
func validSVG(t *testing.T, doc string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v\n%s", err, doc[:min(len(doc), 800)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// pyState pauses a MiniPy program at the given line and snapshots it.
func pyState(t *testing.T, src string, line int) *core.State {
	t.Helper()
	tr := pytracker.New()
	if err := tr.LoadProgram("prog.py", core.WithSource(src)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.BreakBeforeLine("", line); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	st, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func cState(t *testing.T, src string, line int, heap bool) *core.State {
	t.Helper()
	tr := gdbtracker.New()
	opts := []core.LoadOption{core.WithSource(src)}
	if heap {
		opts = append(opts, core.WithHeapTracking())
	}
	if err := tr.LoadProgram("prog.c", opts...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.BreakBeforeLine("", line); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	st, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const pyStackProg = `def helper(v):
    w = v * 2
    return w

x = 10
xs = [1, 2, 3]
y = helper(x)
print(y)
`

func TestStackOnlyDiagramPy(t *testing.T) {
	st := pyState(t, pyStackProg, 3) // inside helper
	doc := StackHeapSVG(st, StackHeapOptions{
		Mode: StackOnly, Title: "stack", ShowGlobals: true,
	})
	validSVG(t, doc)
	for _, want := range []string{"helper", "&lt;module&gt;", "w", "20", "[1, 2, 3]"} {
		if !strings.Contains(doc, want) {
			t.Errorf("stack diagram missing %q", want)
		}
	}
	// Stack-only inlines lists: no separate heap objects, no arrows.
	if strings.Contains(doc, "marker-end") {
		t.Error("stack-only diagram has arrows")
	}
}

func TestStackHeapDiagramPy(t *testing.T) {
	src := `xs = [1, 2, 3]
ys = xs
d = {"k": xs}
done = 1
`
	st := pyState(t, src, 4)
	doc := StackHeapSVG(st, StackHeapOptions{
		Mode: StackAndHeap, ShowGlobals: true, Title: "stack+heap",
	})
	validSVG(t, doc)
	if !strings.Contains(doc, "marker-end") {
		t.Error("no reference arrows in heap mode")
	}
	if !strings.Contains(doc, "list") || !strings.Contains(doc, "dict") {
		t.Error("heap object type labels missing")
	}
	// Aliased list drawn once: count the list title occurrences.
	if c := strings.Count(doc, ">list<"); c != 1 {
		t.Errorf("aliased list drawn %d times, want 1", c)
	}
}

func TestStackHeapDiagramC(t *testing.T) {
	src := `int main() {
    int x = 3;
    int* p = &x;
    int* bad = (int*)7;
    int* xs = (int*)malloc(3 * sizeof(int));
    xs[0] = 10;
    xs[1] = 20;
    xs[2] = 30;
    return 0;
}`
	st := cState(t, src, 9, true)
	doc := StackHeapSVG(st, StackHeapOptions{Mode: StackAndHeap, Title: "C"})
	validSVG(t, doc)
	// Invalid pointer drawn as a cross: two crossing lines exist.
	if !strings.Contains(doc, "marker-end") {
		t.Error("no arrows for pointers")
	}
	for _, want := range []string{"main", "x", "p", "bad", "xs", "int[3]"} {
		if !strings.Contains(doc, want) {
			t.Errorf("C diagram missing %q", want)
		}
	}
}

func TestArraySVG(t *testing.T) {
	arr := core.NewList(
		core.NewInt(5), core.NewInt(2), core.NewInt(9),
		core.NewInt(1), core.NewInt(7),
	)
	doc := ArraySVG(arr, ArrayViewOptions{
		Title:      "invariant",
		Indices:    map[string]int{"i": 1, "j": 3},
		SortedFrom: 3,
		SortedTo:   -1,
	})
	validSVG(t, doc)
	for _, want := range []string{"invariant", ">5<", ">9<", ">i<", ">j<", ColSorted} {
		if !strings.Contains(doc, want) {
			t.Errorf("array view missing %q", want)
		}
	}
	// Out-of-range marker is skipped, not drawn.
	doc2 := ArraySVG(arr, ArrayViewOptions{Indices: map[string]int{"k": 99}, SortedFrom: -1, SortedTo: -1})
	validSVG(t, doc2)
	if strings.Contains(doc2, ">k<") {
		t.Error("out-of-range marker drawn")
	}
}

func TestCallTree(t *testing.T) {
	root := &CallNode{UID: 0, Label: "fib(3)", Active: true}
	c1 := root.AddChild(1, "fib(2)")
	c2 := root.AddChild(2, "fib(1)")
	c11 := c1.AddChild(3, "fib(1)")
	c12 := c1.AddChild(4, "fib(0)")
	c11.Active = false
	c11.RetVal = "1"
	c12.Active = false
	c12.RetVal = "0"
	c1.Active = false
	c1.RetVal = "1"
	_ = c2

	if CountNodes(root) != 5 {
		t.Errorf("CountNodes = %d", CountNodes(root))
	}

	dot := CallTreeDOT(root)
	for _, want := range []string{
		"digraph rec", `n0 [label="fib(3)", fillcolor=tomato]`,
		"n0 -> n1;", `n1 -> n0 [style=dashed, label="1", constraint=false];`,
		"fillcolor=gray80",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q in:\n%s", want, dot)
		}
	}

	svg := CallTreeSVG(root)
	validSVG(t, svg)
	for _, want := range []string{"fib(3)", "fib(2)", ColActive, ColDone} {
		if !strings.Contains(svg, want) {
			t.Errorf("tree SVG missing %q", want)
		}
	}
}

// fakeMem serves fixed memory to the memview.
type fakeMem struct{ data map[uint64][]byte }

func (f fakeMem) ValueAt(addr uint64, size int) ([]byte, error) {
	if b, ok := f.data[addr]; ok {
		return b, nil
	}
	return make([]byte, size), nil
}

func TestMemViews(t *testing.T) {
	regs := map[string]uint64{"sp": 0x800000, "fp": 0x800000, "a0": 42}
	mem := fakeMem{data: map[uint64][]byte{
		0x1000: {1, 2, 3, 4, 5, 6, 7, 8},
	}}
	opt := MemViewOptions{
		Title:    "riscv",
		Segments: []core.Segment{{Name: "text", Start: 0x1000, Size: 32}},
		Highlight: map[uint64]string{
			0x1008: "pc",
		},
	}
	text := MemViewText(regs, mem, opt)
	for _, want := range []string{"registers:", "sp", "0x0000000000800000", "memory (text", "0x00001000"} {
		if !strings.Contains(text, want) {
			t.Errorf("text view missing %q in:\n%s", want, text)
		}
	}
	svg := MemViewSVG(regs, mem, opt)
	validSVG(t, svg)
	for _, want := range []string{"registers", "memory", "text @ 0x1000", "← pc"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg view missing %q", want)
		}
	}
}

// TestMemViewStackFromSP pauses a MiniC program inside a callee and
// renders the stack segment as et-memview does: the first row is sp's word,
// marked sp, and the callee's local (7) is among the words shown. The
// stack's lowest words, which no frame reaches, are not.
func TestMemViewStackFromSP(t *testing.T) {
	const src = `int add(int a, int b) {
    int local = 7;
    return a + b + local;
}

int main() {
    int r = add(2, 3);
    printf("%d\n", r);
    return 0;
}
`
	tr := gdbtracker.New()
	if err := tr.LoadProgram("prog.c", core.WithSource(src)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.BreakBeforeLine("", 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	regs, err := tr.Registers()
	if err != nil {
		t.Fatal(err)
	}
	var stack core.Segment
	for _, seg := range tr.MemorySegments() {
		if seg.Name == "stack" {
			stack = seg
		}
	}
	sp := regs["sp"] &^ 7
	if stack.Size == 0 || sp <= stack.Start {
		t.Fatalf("stack segment %+v, sp %#x", stack, sp)
	}
	opt := MemViewOptions{Segments: []core.Segment{stack}, MaxWords: 8,
		Highlight: map[uint64]string{sp: "sp", regs["fp"] &^ 7: "fp"}}
	text := MemViewText(regs, tr, opt)
	rows := strings.Split(strings.TrimSpace(text[strings.Index(text, "memory ("):]), "\n")[1:]
	if len(rows) == 0 || !strings.Contains(rows[0], fmt.Sprintf("0x%08x", sp)) || !strings.HasSuffix(rows[0], "<-- sp") {
		t.Fatalf("first stack row is not sp's word (sp %#x):\n%s", sp, text)
	}
	found := false
	for _, row := range rows {
		f := strings.Fields(row)
		found = found || len(f) >= 3 && f[2] == "7"
	}
	if !found {
		t.Errorf("the callee's local 7 is not among the stack words shown:\n%s", text)
	}
	if strings.Contains(text, fmt.Sprintf("0x%08x ", stack.Start)) {
		t.Errorf("the stack view shows the segment's lowest word %#x:\n%s", stack.Start, text)
	}
	svg := MemViewSVG(regs, tr, opt)
	validSVG(t, svg)
	if !strings.Contains(svg, fmt.Sprintf("0x%08x", sp)) || !strings.Contains(svg, "← sp") {
		t.Errorf("the stack SVG does not start at sp %#x", sp)
	}
}

func TestSourceListing(t *testing.T) {
	lines := []string{"a = 1", "b = 2", "print(a+b)"}
	text := SourceListing(lines, 2)
	if !strings.Contains(text, "->   2 | b = 2") {
		t.Errorf("listing:\n%s", text)
	}
	svg := SourceSVG(lines, 2, "prog.py")
	validSVG(t, svg)
	if !strings.Contains(svg, "b = 2") || !strings.Contains(svg, "#ffe9c7") {
		t.Error("source SVG missing highlight")
	}
}

func TestCyclicStateDiagramTerminates(t *testing.T) {
	src := `xs = [1]
xs.append(xs)
done = 1
`
	st := pyState(t, src, 3)
	doc := StackHeapSVG(st, StackHeapOptions{Mode: StackAndHeap, ShowGlobals: true})
	validSVG(t, doc)
	if c := strings.Count(doc, ">list<"); c != 1 {
		t.Errorf("self-referential list drawn %d times", c)
	}
}
