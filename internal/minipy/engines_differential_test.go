package minipy

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"easytracker/internal/core"
)

// Cross-engine differential testing: every program must behave identically
// under the bytecode VM (Interp.Run) and the tree-walking reference
// interpreter (walker_test.go). "Identically" means the same exit code and
// error, byte-identical stdout, and the same trace-event stream, compared
// event by event: the kind, line and function name (the SetTrace contract
// the trackers build on), the frame chain and globals a tracker would
// snapshot there (Equivalent values), and whether the mutation epoch moved
// since the previous event (the watch fast path's dirty test).

// stateDepth bounds the call depth at which an event's frame chain and
// globals are snapshotted. Snapshots cost O(depth) each, so the runaway
// recursion cases would make them quadratic; the bounded programs never
// get this deep.
const stateDepth = 64

// engineEvent is one trace event as a tracker sees it.
type engineEvent struct {
	at      string // event:line:function
	frame   *core.Frame
	globals []*core.Variable
	moved   bool // Epoch() advanced since the previous event
}

// engineRun is one engine's observable outcome for a program.
type engineRun struct {
	code    int
	err     error
	stdout  string
	events  []engineEvent
	globals []*core.Variable
}

func runEngine(t *testing.T, src string, eng engine) *engineRun {
	t.Helper()
	mod, err := Parse("diff.py", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	in := NewInterp(mod)
	in.MaxSteps = 60_000
	var out strings.Builder
	in.SetStdout(&out)
	in.SetStderr(&out)
	r := &engineRun{}
	var epoch uint64
	in.SetTrace(func(fr *RTFrame, ev Event, retval *Object) error {
		e := engineEvent{at: fmt.Sprintf("%s:%d:%s", ev, fr.Line, fr.Name), moved: in.Epoch() != epoch}
		epoch = in.Epoch()
		if fr.Depth <= stateDepth {
			c := NewConverter(in)
			e.frame = SnapshotFrame(c, fr, "diff.py")
			e.globals = SnapshotGlobals(c, in.Globals)
		}
		r.events = append(r.events, e)
		return nil
	})
	r.code, r.err = eng.run(in)
	r.stdout = out.String()
	r.globals = SnapshotGlobals(NewConverter(in), in.Globals)
	return r
}

// diffEngines runs src under both engines and reports any observable
// divergence.
func diffEngines(t *testing.T, src string) {
	t.Helper()
	vm := runEngine(t, src, engineVM)
	ast := runEngine(t, src, engineWalker)

	if vm.code != ast.code {
		t.Errorf("exit code: vm=%d ast=%d", vm.code, ast.code)
	}
	switch {
	case (vm.err == nil) != (ast.err == nil):
		t.Errorf("error presence: vm=%v ast=%v", vm.err, ast.err)
	case vm.err != nil && vm.err.Error() != ast.err.Error():
		t.Errorf("error text: vm=%q ast=%q", vm.err, ast.err)
	}
	if vm.stdout != ast.stdout {
		t.Errorf("stdout diverged:\n--- vm ---\n%s\n--- ast ---\n%s", vm.stdout, ast.stdout)
	}
	if len(vm.events) != len(ast.events) {
		t.Errorf("trace length: vm=%d ast=%d", len(vm.events), len(ast.events))
	}
	for i := range vm.events {
		if i >= len(ast.events) {
			break
		}
		v, a := vm.events[i], ast.events[i]
		if v.at != a.at {
			t.Errorf("trace[%d]: vm=%s ast=%s", i, v.at, a.at)
			break
		}
		if v.moved != a.moved {
			t.Errorf("trace[%d] %s: epoch moved vm=%v ast=%v", i, v.at, v.moved, a.moved)
			break
		}
		if !compareFrames(t, v.frame, a.frame) || !compareVars(t, "global", v.globals, a.globals) {
			t.Errorf("trace[%d] %s: state diverged", i, v.at)
			break
		}
	}
	compareVars(t, "global", vm.globals, ast.globals)
}

// compareFrames reports whether two frame chains agree in name, depth,
// line and Equivalent variables, innermost first.
func compareFrames(t *testing.T, vm, ast *core.Frame) bool {
	t.Helper()
	for ; vm != nil && ast != nil; vm, ast = vm.Parent, ast.Parent {
		if vm.Name != ast.Name || vm.Depth != ast.Depth || vm.Line != ast.Line {
			t.Errorf("frame: vm=%s depth %d line %d, ast=%s depth %d line %d",
				vm.Name, vm.Depth, vm.Line, ast.Name, ast.Depth, ast.Line)
			return false
		}
		if !compareVars(t, "frame "+vm.Name, vm.Vars, ast.Vars) {
			return false
		}
	}
	if (vm == nil) != (ast == nil) {
		t.Errorf("frame chain length differs")
		return false
	}
	return true
}

func compareVars(t *testing.T, what string, vm, ast []*core.Variable) bool {
	t.Helper()
	if len(vm) != len(ast) {
		t.Errorf("%s count: vm=%d ast=%d", what, len(vm), len(ast))
		return false
	}
	ok := true
	for i, v := range vm {
		a := ast[i]
		if v.Name != a.Name {
			t.Errorf("%s[%d] name: vm=%s ast=%s", what, i, v.Name, a.Name)
			ok = false
			continue
		}
		if !v.Value.Equivalent(a.Value) {
			t.Errorf("%s %s: vm=%s ast=%s", what, v.Name, v.Value, a.Value)
			ok = false
		}
	}
	return ok
}

// TestEnginesDifferentialTestdata runs every program in testdata/programs
// and testdata/writebarriers.py through both engines.
func TestEnginesDifferentialTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("expected at least 10 testdata programs, found %d", len(files))
	}
	files = append(files, filepath.Join("testdata", "writebarriers.py"))
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			diffEngines(t, string(src))
		})
	}
}

// TestEnginesDifferentialExpressions feeds the random integer-expression
// generator from differential_test.go through both engines.
func TestEnginesDifferentialExpressions(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		expr, _ := genPyExpr(r, 4)
		diffEngines(t, fmt.Sprintf("v = %s\nprint(v)\n", expr))
	}
}

// genListProgram generates a random list-mutation program.
func genListProgram(r *rand.Rand) string {
	var body strings.Builder
	body.WriteString("xs = []\nn = 0\n")
	ops := 5 + r.Intn(15)
	size := 0
	for i := 0; i < ops; i++ {
		switch r.Intn(5) {
		case 0, 1:
			fmt.Fprintf(&body, "xs.append(%d)\n", r.Intn(50))
			size++
		case 2:
			if size > 0 {
				body.WriteString("n = n + xs.pop()\n")
				size--
			}
		case 3:
			if size > 1 {
				fmt.Fprintf(&body, "xs[%d] = %d\n", r.Intn(size), r.Intn(50))
			}
		case 4:
			body.WriteString("xs.sort()\nprint(xs)\n")
		}
	}
	body.WriteString("print(xs, n)\n")
	return body.String()
}

// TestEnginesDifferentialListPrograms feeds randomly generated list-mutation
// programs through both engines.
func TestEnginesDifferentialListPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		diffEngines(t, genListProgram(r))
	}
}

// TestEnginesDifferentialErrors checks that runtime failures diverge in
// neither message nor the trace prefix leading up to them.
func TestEnginesDifferentialErrors(t *testing.T) {
	cases := []string{
		"x = 1 // 0\n",
		"x = [1, 2]\nprint(x[10])\n",
		"print(undefined_name)\n",
		"d = {}\nprint(d[\"missing\"])\n",
		"x = \"s\" + 1\n",
		"def f():\n    return f()\nf()\n",
		"exit(3)\nprint(\"unreached\")\n",
	}
	for i, src := range cases {
		src := src
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			diffEngines(t, src)
		})
	}
}

// BenchmarkAblationEngine ablates the bytecode VM against the tree-walking
// reference on one loop with a trace hook installed, so both engines pay
// the same per-event hook call and the gap is what compile-time name
// resolution and the flat dispatch loop buy over per-node tree walking.
// The module is parsed, and compiled for the VM, once outside the timer.
func BenchmarkAblationEngine(b *testing.B) {
	mod, err := Parse("w.py", "total = 0\nk = 0\nwhile k < 200:\n    k = k + 1\ntotal = 1\n")
	if err != nil {
		b.Fatal(err)
	}
	mod.program()
	hook := func(*RTFrame, Event, *Object) error { return nil }
	for _, eng := range engines {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := NewInterp(mod)
				in.SetTrace(hook)
				if code, err := eng.run(in); code != 0 || err != nil {
					b.Fatalf("exit %d: %v", code, err)
				}
			}
		})
	}
}
