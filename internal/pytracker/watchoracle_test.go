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
	"easytracker/internal/tracetracker"
	"easytracker/internal/ttd"
)

// watchVars runs src once under a bare trace hook, stopping it after
// maxSteps line events (0: the interpreter's default) and capping its
// sequences at fuzzSeqElems, and names every variable it binds: each
// program global as "::g" and each function local as "fn:x", sorted. Names
// bound before the first event (the builtins) are left out.
func watchVars(t *testing.T, src string, maxSteps int64) []string {
	t.Helper()
	mod, err := minipy.Parse("prog.py", src)
	if err != nil {
		t.Fatal(err)
	}
	in := minipy.NewInterp(mod)
	in.MaxSteps, in.MaxSeqElems = maxSteps, fuzzSeqElems
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

// oracleWatchRun runs src with the given watches and load options and
// returns the finished tracker and its watch pauses, each at the event the
// interpreter counts there (Interp.Events), next to an oracle's hits.
// The oracle runs the same program again on an interpreter of its own
// under a bare hook, which sees every event whatever the tracker's
// interpreter skips: at every event it resolves each watch through
// resolveVar (the cold path), converts it with a fresh Converter and
// applies core.WatchChanged against its previous conversion, in watch
// order with the first hit winning — the meaning that pyView.Watched's
// epoch test and per-frame resolution cache, ttd.Probes.Classify's
// snapshot rule and the lines Resume skips must preserve.
func oracleWatchRun(t *testing.T, src string, ids []string, opts ...core.LoadOption) (tr *Tracker, got, want []watchHit) {
	t.Helper()
	want = oracleWatchHits(t, src, ids)
	tr = load(t, src, opts...)
	for _, id := range ids {
		if err := tr.Watch(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	for {
		r := tr.PauseReason()
		if r.Type == core.PauseWatch {
			got = append(got, watchHit{int(tr.interp.Events()), r.Variable, valueJSON(t, r.Old), valueJSON(t, r.New)})
		} else if r.Type != core.PauseEntry {
			t.Fatalf("unexpected pause %v", r)
		}
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			return tr, got, want
		}
	}
}

// oracleWatchHits runs src under a bare hook on a loaded tracker's
// interpreter, never started, and returns the oracle's watch hits for ids.
func oracleWatchHits(t *testing.T, src string, ids []string) []watchHit {
	t.Helper()
	ref := load(t, src)
	var hits []watchHit
	prev := make([]*core.Value, len(ids))
	event := 0
	ref.interp.SetTrace(func(fr *minipy.RTFrame, _ minipy.Event, _ *minipy.Object) error {
		event++
		for i, id := range ids {
			scope, name, _ := core.ParseVarRef(id)
			var now *core.Value
			if obj, ok := ref.resolveVar(fr, scope, name); ok {
				now = minipy.NewConverter(ref.interp).VarValue(obj)
			}
			old := prev[i]
			prev[i] = now
			if core.WatchChanged(old, now) {
				hits = append(hits, watchHit{event, id, valueJSON(t, old), valueJSON(t, now)})
				break
			}
		}
		return nil
	})
	if _, err := ref.interp.Run(); err != nil {
		t.Fatal(err)
	}
	return hits
}

// replayWatchHits replays a session's own recording on the trace tracker
// with every id watched and returns its watch pauses. Recorded step i is
// the session's trace event i+1.
func replayWatchHits(t *testing.T, s *ttd.Store, ids []string) []watchHit {
	t.Helper()
	rp := tracetracker.New()
	if err := rp.LoadStore(s); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := rp.Watch(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := rp.Start(); err != nil {
		t.Fatal(err)
	}
	var hits []watchHit
	for {
		if err := rp.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := rp.ExitCode(); done {
			return hits
		}
		r := rp.PauseReason()
		if r.Type != core.PauseWatch {
			t.Fatalf("unexpected replay pause %v", r)
		}
		hits = append(hits, watchHit{rp.Pos() + 1, r.Variable, valueJSON(t, r.Old), valueJSON(t, r.New)})
	}
}

// TestWatchFastPathMatchesOracle is the differential oracle for the watch
// fast path: the tracker's watch pauses must equal the oracle's hits — same
// event, same variable, same old and new JSON. It runs each program three
// times: plain, where Resume skips the lines no probe can fire at,
// recording itself for time travel, where the hook sees every line, and
// replayed from that recording. A recording session runs a Converter and
// reads the mutation epoch at every event ahead of the watch check, so the
// second run pins that recording leaves the epoch test and the snapshot
// memo the fast path keys on undisturbed. The replay row runs the trace tracker over the
// session's own recording (rec.Store()): the one classifier reading Timeline.VarAt
// must pause where the live tracker does, a second watch changed at the
// same event one event later included.
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
	sessions := []struct {
		name   string
		opts   []core.LoadOption
		replay bool
	}{
		{"vm", nil, false},
		{"recording", []core.LoadOption{core.WithRecording(0)}, false},
		{"replay", []core.LoadOption{core.WithRecording(0)}, true},
	}
	for _, p := range progs {
		ids := p.ids
		if ids == nil {
			ids = watchVars(t, p.src, 0)
		}
		for _, ses := range sessions {
			t.Run(p.name+"/"+ses.name, func(t *testing.T) {
				tr, got, want := oracleWatchRun(t, p.src, ids, ses.opts...)
				if ses.replay {
					got = replayWatchHits(t, tr.rec.Store(), ids)
				}
				t.Logf("%d watches, %d hits", len(ids), len(want))
				sameWatchHits(t, ids, got, want)
				if ses.opts != nil {
					return
				}
				// Each watch alone too: with every variable watched, a
				// pause at nearly every line keeps the next line on the
				// hook, which would hide a write barrier that fails to
				// raise attention.
				for _, id := range ids {
					_, got, want := oracleWatchRun(t, p.src, []string{id})
					sameWatchHits(t, []string{id}, got, want)
				}
			})
		}
	}
}

// sameWatchHits fails t unless the tracker's watch pauses are the oracle's
// hits, of which there must be some.
func sameWatchHits(t *testing.T, ids []string, got, want []watchHit) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("oracle saw no watch hits for %v", ids)
	}
	render := func(hs []watchHit) string {
		var b strings.Builder
		for _, h := range hs {
			fmt.Fprintf(&b, "event %d %s: %s -> %s\n", h.event, h.id, h.old, h.value)
		}
		return b.String()
	}
	if g, w := render(got), render(want); g != w {
		t.Errorf("watch pauses differ from the oracle (%v)\n--- tracker ---\n%s--- oracle ---\n%s", ids, g, w)
	}
}
