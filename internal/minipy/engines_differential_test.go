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
// under the bytecode VM (EngineVM, the default) and the tree-walking
// reference interpreter (EngineAST). "Identically" means the same exit
// code and error, byte-identical stdout, an identical trace-event stream
// (event kind, line, function name — the SetTrace contract the trackers
// build on), and equivalent final globals.

// engineRun is one engine's observable outcome for a program.
type engineRun struct {
	code    int
	err     error
	stdout  string
	trace   []string
	globals []*core.Variable
}

func runEngine(t *testing.T, src string, eng Engine) *engineRun {
	t.Helper()
	mod, err := Parse("diff.py", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	in := NewInterp(mod)
	in.SetEngine(eng)
	in.MaxSteps = 60_000
	var out strings.Builder
	in.SetStdout(&out)
	in.SetStderr(&out)
	r := &engineRun{}
	in.SetTrace(func(fr *RTFrame, ev Event, retval *Object) error {
		r.trace = append(r.trace, fmt.Sprintf("%s:%d:%s", ev, fr.Line, fr.Name))
		return nil
	})
	r.code, r.err = in.Run()
	r.stdout = out.String()
	r.globals = SnapshotGlobals(NewConverter(in), in.Globals)
	return r
}

// diffEngines runs src under both engines and reports any observable
// divergence.
func diffEngines(t *testing.T, src string) {
	t.Helper()
	vm := runEngine(t, src, EngineVM)
	ast := runEngine(t, src, EngineAST)

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
	if len(vm.trace) != len(ast.trace) {
		t.Errorf("trace length: vm=%d ast=%d", len(vm.trace), len(ast.trace))
	}
	for i := range vm.trace {
		if i >= len(ast.trace) {
			break
		}
		if vm.trace[i] != ast.trace[i] {
			t.Errorf("trace[%d]: vm=%s ast=%s", i, vm.trace[i], ast.trace[i])
			break
		}
	}
	compareGlobals(t, vm.globals, ast.globals)
}

func compareGlobals(t *testing.T, vm, ast []*core.Variable) {
	t.Helper()
	if len(vm) != len(ast) {
		t.Errorf("global count: vm=%d ast=%d", len(vm), len(ast))
		return
	}
	for i, v := range vm {
		a := ast[i]
		if v.Name != a.Name {
			t.Errorf("global[%d] name: vm=%s ast=%s", i, v.Name, a.Name)
			continue
		}
		if !v.Value.Equivalent(a.Value) {
			t.Errorf("global %s: vm=%s ast=%s", v.Name, v.Value, a.Value)
		}
	}
}

// TestEnginesDifferentialTestdata runs every program in testdata/programs
// through both engines.
func TestEnginesDifferentialTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("expected at least 10 testdata programs, found %d", len(files))
	}
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
