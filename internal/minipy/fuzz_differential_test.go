package minipy

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzEngineRun executes src under one engine with tight budgets and
// returns the observable outcome as a single comparable string. Parse
// failures are reported by the caller (both engines share the front end).
func fuzzEngineRun(mod *Module, eng engine) string {
	in := NewInterp(mod)
	in.MaxSteps = 20_000
	in.MaxSeqElems = 10_000
	in.SetStdin(strings.NewReader(""))
	var out strings.Builder
	in.SetStdout(&out)
	in.SetStderr(&out)
	var trace []string
	in.SetTrace(func(fr *RTFrame, ev Event, retval *Object) error {
		if len(trace) < 50_000 {
			trace = append(trace, fmt.Sprintf("%s:%d:%s", ev, fr.Line, fr.Name))
		}
		return nil
	})
	code, err := eng.run(in)
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	return fmt.Sprintf("code=%d err=%q stdout=%q trace=%v",
		code, errText, out.String(), trace)
}

// FuzzMiniPyDifferential cross-checks the bytecode VM against the
// tree-walking reference on arbitrary source text: any program the parser
// accepts must produce the same exit code, error text, stdout bytes, and
// trace-event stream under both engines. This is the guard that keeps the
// compiled engine honest about the SetTrace contract — a divergence here
// is a miscompile even if nothing crashes.
func FuzzMiniPyDifferential(f *testing.F) {
	seeds := []string{
		"x = 1\nprint(x + 2)\n",
		"def f(n):\n    if n < 2:\n        return n\n    return f(n - 1) + f(n - 2)\nprint(f(6))\n",
		"xs = [3, 1, 2]\nxs.sort()\nprint(xs[0], xs[-1], xs[1:])\n",
		"d = {\"a\": 1}\nd[\"b\"] = 2\nprint(sorted(d.keys()))\n",
		"i = 0\nwhile i < 5:\n    i = i + 1\n    if i == 3:\n        continue\nprint(i)\n",
		"for i in range(3):\n    print(i)\n",
		"a, b = 1, 2\na, b = b, a\nprint(a - b)\n",
		"g = 0\ndef bump():\n    global g\n    g = g + 1\nbump()\nprint(g)\n",
		"class C:\n    def __init__(self):\n        self.v = 7\nprint(C().v)\n",
		"print(1 // 0)\n",
		"print(undefined)\n",
		"while True:\n    pass\n",
		"def f():\n    return f()\nf()\n",
		"s = \"ab\" * 3\nprint(s.upper(), len(s))\n",
		"print(not [] and 1 or 2)\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// The curated differential programs double as corpus entries.
	if files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.py")); err == nil {
		for _, p := range files {
			if src, err := os.ReadFile(p); err == nil {
				f.Add(string(src))
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := Parse("fuzz.py", src)
		if err != nil {
			return // rejecting is fine; FuzzMiniPyParse owns the front end
		}
		// Object identities are allocation-order artifacts, not semantics;
		// programs that print them may diverge legitimately.
		if strings.Contains(src, "id(") {
			return
		}
		vm := fuzzEngineRun(mod, engineVM)
		ast := fuzzEngineRun(mod, engineWalker)
		if vm != ast {
			t.Errorf("engines diverged on:\n%s\nvm:  %s\nast: %s", src, vm, ast)
		}
	})
}
