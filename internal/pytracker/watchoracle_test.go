package pytracker

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/minipy"
)

// watchVars runs src once under a bare trace hook and names every variable it
// binds: each program global as "::g" and each function local as "fn:x",
// sorted. Names bound before the first event (the builtins) are left out.
func watchVars(t *testing.T, src string) []string {
	t.Helper()
	mod, err := minipy.Parse("prog.py", src)
	if err != nil {
		t.Fatal(err)
	}
	in := minipy.NewInterp(mod)
	var builtins map[string]bool
	ids := map[string]bool{}
	in.SetTrace(func(fr *minipy.RTFrame, _ minipy.Event, _ *minipy.Object) error {
		if builtins == nil {
			builtins = map[string]bool{}
			for _, n := range in.Globals.Names() {
				builtins[n] = true
			}
		}
		for _, n := range in.Globals.Names() {
			if !builtins[n] {
				ids["::"+n] = true
			}
		}
		for f := fr; f != nil && f.Depth > 0; f = f.Parent {
			for _, n := range f.Locals.Names() {
				ids[f.Name+":"+n] = true
			}
		}
		return nil
	})
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(ids))
	for id := range ids {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// watchHit is one watch pause: the trace event it happened at (counted from
// 1), the variable and the JSON of its old and new values.
type watchHit struct {
	event          int
	id, old, value string
}

func valueJSON(t *testing.T, v *core.Value) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// oracleWatchRun runs src with the given watches on one engine and returns
// the tracker's watch pauses next to an oracle's. The oracle wraps the
// tracker's trace function: at every event, before the tracker's own check,
// it resolves each watch through resolveVar (the cold path), converts it
// with a fresh Converter and applies core.WatchChanged against its previous
// conversion, in watch order with the first hit winning — the meaning
// compareWatches' memo, epoch test and per-frame resolution cache must
// preserve.
func oracleWatchRun(t *testing.T, src string, ids []string, opts ...core.LoadOption) (got, want []watchHit) {
	t.Helper()
	tr := load(t, src, opts...)
	for _, id := range ids {
		if err := tr.Watch(id); err != nil {
			t.Fatal(err)
		}
	}
	prev := make([]*core.Value, len(ids))
	event := 0
	tr.interp.SetTrace(func(fr *minipy.RTFrame, ev minipy.Event, ret *minipy.Object) error {
		event++
		for i, id := range ids {
			scope, name := core.SplitVarID(id)
			var now *core.Value
			if obj, ok := tr.resolveVar(fr, scope, name); ok {
				now = minipy.NewConverter(tr.interp).VarValue(obj)
			}
			old := prev[i]
			prev[i] = now
			if core.WatchChanged(old, now) {
				want = append(want, watchHit{event, id, valueJSON(t, old), valueJSON(t, now)})
				break
			}
		}
		return tr.traceFn(fr, ev, ret)
	})
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	for {
		r := tr.PauseReason()
		if r.Type == core.PauseWatch {
			got = append(got, watchHit{event, r.Variable, valueJSON(t, r.Old), valueJSON(t, r.New)})
		} else if r.Type != core.PauseEntry {
			t.Fatalf("unexpected pause %v", r)
		}
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			return got, want
		}
	}
}

// TestWatchFastPathMatchesOracle is the differential oracle for the watch
// fast path, on both engines (the tree walker's scopes have no symtab slots,
// so it exercises the map path): the tracker's watch pauses must equal the
// oracle's hits — same event, same variable, same old and new JSON.
func TestWatchFastPathMatchesOracle(t *testing.T) {
	type program struct {
		name, src string
		ids       []string
	}
	var progs []program
	files, err := filepath.Glob(filepath.Join("..", "minipy", "testdata", "programs", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 13 {
		t.Fatalf("expected the 13 testdata programs, found %d", len(files))
	}
	// One in-place write through every write-barrier site.
	files = append(files, filepath.Join("..", "minipy", "testdata", "writebarriers.py"))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{name: filepath.Base(f), src: string(src)})
	}
	progs = append(progs,
		// A bare name resolves to f's local inside f and to the global
		// everywhere else, so the watch switches binding with the frame.
		program{name: "bare-local-vs-global", ids: []string{"x"}, src: `x = 1

def f():
    x = 10
    x = 11
    return x

def g():
    return x + 1

a = f()
b = g()
x = 2
c = f()
d = g()
`},
		// The innermost activation of fact changes on every call and
		// return.
		program{name: "recursive-local", ids: []string{"fact:r", "fact:n"}, src: `def fact(n):
    r = 1
    if n > 1:
        r = n * fact(n - 1)
    return r

v = fact(5)
w = fact(3)
`},
		program{name: "del-watched-global", ids: []string{"::g"}, src: `g = [1, 2]
g.append(3)
del g
h = 0
g = [1, 2, 3]
g[0] = 9
`},
	)
	engines := []struct {
		name string
		opts []core.LoadOption
	}{
		{"vm", nil},
		{"ast", []core.LoadOption{core.WithASTInterpreter()}},
	}
	for _, p := range progs {
		ids := p.ids
		if ids == nil {
			ids = watchVars(t, p.src)
		}
		for _, eng := range engines {
			t.Run(p.name+"/"+eng.name, func(t *testing.T) {
				got, want := oracleWatchRun(t, p.src, ids, eng.opts...)
				if len(want) == 0 {
					t.Fatalf("oracle saw no watch hits for %v", ids)
				}
				t.Logf("%d watches, %d hits", len(ids), len(want))
				render := func(hs []watchHit) string {
					var b strings.Builder
					for _, h := range hs {
						fmt.Fprintf(&b, "event %d %s: %s -> %s\n", h.event, h.id, h.old, h.value)
					}
					return b.String()
				}
				if g, w := render(got), render(want); g != w {
					t.Errorf("watch pauses differ from the oracle (%d watches)\n--- tracker ---\n%s--- oracle ---\n%s", len(ids), g, w)
				}
			})
		}
	}
}
