package tracetracker

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/pt"
	"easytracker/internal/pytracker"
	"easytracker/internal/ttd"
)

// watchRulePrograms are programs on which comparing String() renderings,
// with "<undef>" for a missing variable, disagrees with core.WatchChanged:
// a watched local whose frame returns, a del, an int and a float that are
// numerically equal but render differently, and 0 against -0.0.
var watchRulePrograms = []struct {
	name, watch, src string
}{
	{"local-goes-out-of-scope", "f:x", `def f():
    x = 1
    x = 2
    return x

a = f()
b = f()
`},
	{"del-global", "::x", `y = 0
x = 1
del x
y = 2
`},
	{"int-float-beyond-2^53", "::x", `y = 0
x = 9007199254740993
x = 9007199254740992.0
y = 1
`},
	{"zero-negative-zero", "::x", `y = 0
x = 0
x = -0.0
y = 1
`},
}

// surfaceTracker is the tracker surface the transcripts drive: the forward
// control calls plus reverse execution.
type surfaceTracker interface {
	core.Tracker
	ResumeBack() error
	Pos() int
}

// renderPause renders a pause for a transcript.
func renderPause(r core.PauseReason) string {
	val := func(v *core.Value) string {
		if v == nil {
			return "<nil>"
		}
		return v.String()
	}
	switch r.Type {
	case core.PauseWatch:
		return fmt.Sprintf("%s@%d %s -> %s", r.Variable, r.Line, val(r.Old), val(r.New))
	case core.PauseReturn:
		return fmt.Sprintf("%s %s@%d -> %s", r.Type, r.Function, r.Line, val(r.ReturnValue))
	default:
		return fmt.Sprintf("%s %s@%d", r.Type, r.Function, r.Line)
	}
}

// forwardPauses resumes a started tracker to exit, rendering every pause.
func forwardPauses(t *testing.T, tr surfaceTracker) []string {
	t.Helper()
	var got []string
	for i := 0; i < 10000; i++ {
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			return got
		}
		got = append(got, renderPause(tr.PauseReason()))
	}
	t.Fatal("forward run did not finish")
	return nil
}

// backwardPauses runs ResumeBack from the exit pause to the entry point,
// rendering every pause on the way.
func backwardPauses(t *testing.T, tr surfaceTracker) []string {
	t.Helper()
	var got []string
	for i := 0; i < 10000; i++ {
		if err := tr.ResumeBack(); err != nil {
			t.Fatal(err)
		}
		if tr.Pos() == 0 {
			return got
		}
		got = append(got, renderPause(tr.PauseReason()))
	}
	t.Fatal("backward run did not reach entry")
	return nil
}

// surfaces runs one program on the four trackers a transcript is taken
// on: a live MiniPy session that records itself (so it can rewind), a
// plain live session, whose Resume skips the lines where no probe can
// fire, and replays of the v1 and v2 encodings of its full-step recording,
// each decoded once from its bytes. Recording keeps every line on the
// trace hook, so only the plain session runs the skipping path.
type surfaces struct {
	src   string
	fns   []string
	v1    *pt.Trace
	store *ttd.Store
}

var defName = regexp.MustCompile(`(?m)^\s*def (\w+)\(`)

// newSurfaces records src with every function tracked, so the trace has
// the call and return steps a live session pauses on.
func newSurfaces(t *testing.T, src string) surfaces {
	t.Helper()
	var fns []string
	for _, m := range defName.FindAllStringSubmatch(src, -1) {
		fns = append(fns, m[1])
	}
	rec := pytracker.New()
	var out strings.Builder
	if err := rec.LoadProgram("p.py", core.WithSource(src), core.WithStdout(&out)); err != nil {
		t.Fatal(err)
	}
	trace, err := pt.Record(rec, &out, pt.Options{Mode: pt.ModeFullStep, TrackFunctions: fns, Lang: "minipy"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := trace.Encode()
	if err != nil {
		t.Fatal(err)
	}
	v1, err := pt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	store, err := ttd.FromTrace(trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data, err = store.Trace().Encode(); err != nil {
		t.Fatal(err)
	}
	v2, err := pt.DecodeV2(data)
	if err != nil {
		t.Fatal(err)
	}
	if store, err = ttd.FromV2(v2); err != nil {
		t.Fatal(err)
	}
	return surfaces{src: src, fns: fns, v1: v1, store: store}
}

// open returns a started tracker on the named surface.
func (s surfaces) open(t *testing.T, name string) surfaceTracker {
	t.Helper()
	var tr surfaceTracker
	var err error
	switch name {
	case "live", "plain":
		opts := []core.LoadOption{core.WithSource(s.src), core.WithStdout(&strings.Builder{})}
		if name == "live" {
			opts = append(opts, core.WithRecording(0))
		}
		tr = pytracker.New()
		err = tr.LoadProgram("p.py", opts...)
	case "v1":
		rt := New()
		tr, err = rt, rt.LoadTrace(s.v1)
	default:
		rt := New()
		tr, err = rt, rt.LoadStore(s.store)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// transcripts arms p on every surface and takes two transcripts each:
// forward, resuming from entry to exit; and reverse, running to exit with
// nothing armed, arming, then resuming backwards to entry. The live
// session's reverse transcript is the rewound live session's; the plain
// session, which keeps no recording, has only the forward one.
func (s surfaces) transcripts(t *testing.T, p core.Probe) (fwd, back map[string][]string) {
	t.Helper()
	fwd, back = map[string][]string{}, map[string][]string{}
	for _, name := range []string{"live", "plain", "v1", "v2"} {
		tr := s.open(t, name)
		if err := tr.Arm(p); err != nil {
			t.Fatalf("%s: arm %v: %v", name, p, err)
		}
		fwd[name] = forwardPauses(t, tr)
		if name == "plain" {
			continue
		}

		tr = s.open(t, name)
		forwardPauses(t, tr)
		if err := tr.Arm(p); err != nil {
			t.Fatalf("%s: arm %v: %v", name, p, err)
		}
		back[name] = backwardPauses(t, tr)
	}
	return fwd, back
}

// stepPauses steps a started tracker to exit with step (Step or Next),
// rendering every pause.
func stepPauses(t *testing.T, tr surfaceTracker, step func() error) []string {
	t.Helper()
	var got []string
	for i := 0; i < 10000; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			return got
		}
		got = append(got, renderPause(tr.PauseReason()))
	}
	t.Fatal("stepped run did not finish")
	return nil
}

// stepTranscripts arms p on every surface with every function also
// tracked, as the v1 trace was recorded, so a live Step pauses at exactly
// the recorded steps, and takes two forward transcripts each: stepping
// from entry to exit, and taking Next from entry to exit. Tracking is
// armed first, so a track probe p replaces its function's plain gate.
func (s surfaces) stepTranscripts(t *testing.T, p core.Probe) (step, next map[string][]string) {
	t.Helper()
	step, next = map[string][]string{}, map[string][]string{}
	for _, name := range []string{"live", "plain", "v1", "v2"} {
		for _, m := range []struct {
			into map[string][]string
			move func(surfaceTracker) func() error
		}{
			{step, func(tr surfaceTracker) func() error { return tr.Step }},
			{next, func(tr surfaceTracker) func() error { return tr.Next }},
		} {
			tr := s.open(t, name)
			for _, fn := range s.fns {
				if err := tr.TrackFunction(fn); err != nil {
					t.Fatalf("%s: track %s: %v", name, fn, err)
				}
			}
			if err := tr.Arm(p); err != nil {
				t.Fatalf("%s: arm %v: %v", name, p, err)
			}
			m.into[name] = stepPauses(t, tr, m.move(tr))
		}
	}
	return step, next
}

// agree reports every replay transcript that differs from the live one.
func agree(t *testing.T, fwd, back map[string][]string) {
	t.Helper()
	same := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n got %q\nwant %q", what, got, want)
		}
	}
	same("forward v1 vs live", fwd["v1"], fwd["live"])
	same("forward v2 vs live", fwd["v2"], fwd["live"])
	same("forward v1 vs plain", fwd["v1"], fwd["plain"])
	same("forward v2 vs plain", fwd["v2"], fwd["plain"])
	same("ResumeBack v1 vs rewound live", back["v1"], back["live"])
	same("ResumeBack v2 vs rewound live", back["v2"], back["live"])
}

// TestWatchRuleAgreesAcrossSurfaces pins the one watch-change rule: a live
// session, a v1 trace replay and its v2 conversion give the same forward
// watch transcript, and ResumeBack gives the same transcript on v1, v2 and
// the rewound live session.
func TestWatchRuleAgreesAcrossSurfaces(t *testing.T) {
	for _, p := range watchRulePrograms {
		t.Run(p.name, func(t *testing.T) {
			fwd, back := newSurfaces(t, p.src).transcripts(t, core.WatchProbe(p.watch))
			if len(fwd["live"]) == 0 || len(back["live"]) == 0 {
				t.Fatalf("live transcripts empty: forward %q, back %q", fwd["live"], back["live"])
			}
			agree(t, fwd, back)
		})
	}
}

// oracleDefProgram is a function called in a loop: its def line is also
// the line of every call event, and its return line that of every return
// event, so a line probe that fires on call or return steps shows.
const oracleDefProgram = `def f(n):
    m = n + 1
    return m

g = 0
i = 0
while i < 4:
    g = f(i)
    i = i + 1
`

var (
	blockHeader  = regexp.MustCompile(`^\s*(def|while|for) .*:$`)
	moduleAssign = regexp.MustCompile(`^([a-z_]\w*) = `)
)

// oracleProbes derives the probes of the oracle from a program's text: line
// probes on its first def line and first return line, probes with every
// BreakConfig option on the first line of its first block body, a function
// breakpoint and tracked function on its first def, and a watch on its
// first module-level variable.
func oracleProbes(src string) []core.Probe {
	lines := strings.Split(src, "\n")
	var defLine, retLine, hotLine int
	var fn, global string
	for i, l := range lines {
		n, trimmed := i+1, strings.TrimSpace(l)
		if defLine == 0 && strings.HasPrefix(trimmed, "def ") {
			defLine = n
		}
		if retLine == 0 && strings.HasPrefix(trimmed, "return ") {
			retLine = n
		}
		if hotLine == 0 && blockHeader.MatchString(l) {
			hotLine = n + 1
		}
		if m := moduleAssign.FindStringSubmatch(l); global == "" && m != nil {
			global = m[1]
		}
	}
	if m := defName.FindStringSubmatch(src); m != nil {
		fn = m[1]
	}
	if hotLine == 0 {
		hotLine = 1
	}
	ps := []core.Probe{
		core.LineProbe("", hotLine, core.WithIgnoreHits(1)),
		core.LineProbe("", hotLine, core.WithOneShot()),
		core.LineProbe("", hotLine, core.WithMaxDepth(1)),
		core.LineProbe("", hotLine, core.WithCondition("depth >= 1")),
	}
	if defLine > 0 {
		ps = append(ps, core.LineProbe("", defLine))
	}
	if retLine > 0 {
		ps = append(ps, core.LineProbe("", retLine))
	}
	if fn != "" {
		ps = append(ps,
			core.FuncProbe(fn),
			core.TrackProbe(fn),
			core.TrackProbe(fn, core.WithCondition("depth < 3")))
	}
	if global != "" {
		ps = append(ps,
			core.LineProbe("", hotLine, core.WithCondition("exists(::"+global+")")),
			core.WatchProbe("::"+global))
	}
	return ps
}

// probeLabel names a probe for a subtest.
func probeLabel(p core.Probe) string {
	s := p.String()
	switch {
	case p.IgnoreHits > 0:
		s += fmt.Sprintf(" ignore %d", p.IgnoreHits)
	case p.OneShot:
		s += " oneshot"
	case p.MaxDepth > 0:
		s += fmt.Sprintf(" maxdepth %d", p.MaxDepth)
	}
	return s
}

// oraclePrograms are the MiniPy testdata programs plus oracleDefProgram. A
// v1 trace has no step after the last statement, so a program whose last
// statement writes its watched variable gets a trailing statement.
func oraclePrograms(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("../minipy/testdata/programs/*.py")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata programs: %v (%d found)", err, len(paths))
	}
	progs := map[string]string{"def-loop": oracleDefProgram}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		src := strings.TrimRight(string(data), "\n") + "\n"
		lines := strings.Split(strings.TrimSpace(src), "\n")
		if moduleAssign.MatchString(lines[len(lines)-1]) {
			src += "pass\n"
		}
		progs[strings.TrimSuffix(filepath.Base(p), ".py")] = src
	}
	return progs
}

// TestProbeTranscriptsAgreeAcrossSurfaces is the probe-transcript oracle:
// for every probe kind and BreakConfig option, a live recording session, a
// plain live session, a v1 replay and a v2 replay pause at the same events
// resuming forward, and the rewound live session, v1 and v2 pause at the
// same events resuming backward. Reverse runs test ignore counts and
// one-shot probes but never spend them, and line probes fire on line
// events only. With every function also tracked, stepping and taking Next
// from entry to exit pause at the same events on all four, each pause
// reporting the probe that fired: replay Step and Next classify each step
// they reach, and Next stops at a probe inside a call it steps over.
func TestProbeTranscriptsAgreeAcrossSurfaces(t *testing.T) {
	progs := oraclePrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	pauses := 0
	for _, name := range names {
		src := progs[name]
		t.Run(name, func(t *testing.T) {
			s := newSurfaces(t, src)
			for _, p := range oracleProbes(src) {
				t.Run(probeLabel(p), func(t *testing.T) {
					fwd, back := s.transcripts(t, p)
					pauses += len(fwd["live"]) + len(back["live"])
					agree(t, fwd, back)
					if p.Kind == core.ProbeTrack && p.Condition != "" {
						// Where the condition is false, live Step does not
						// stop at the call event, while a replay steps every
						// recorded step, that call included (DESIGN §17).
						return
					}
					step, next := s.stepTranscripts(t, p)
					for _, r := range []string{"v1", "v2"} {
						for _, l := range []string{"live", "plain"} {
							if got, want := strings.Join(step[r], "\n"), strings.Join(step[l], "\n"); got != want {
								t.Errorf("Step %s vs %s:\n got %q\nwant %q", r, l, step[r], step[l])
							}
							if got, want := strings.Join(next[r], "\n"), strings.Join(next[l], "\n"); got != want {
								t.Errorf("Next %s vs %s:\n got %q\nwant %q", r, l, next[r], next[l])
							}
						}
					}
				})
			}
		})
	}
	if pauses < 100 {
		t.Fatalf("oracle saw only %d live pauses", pauses)
	}
}

// TestReplayNextStopsInsideCall: Next steps over a call, but a breakpoint
// inside the callee still pauses it, on a replay as live. The traces are
// recorded with nothing tracked, so their steps are the line events a live
// Next steps through.
func TestReplayNextStopsInsideCall(t *testing.T) {
	const src = `def square(n):
    s = n * n
    return s

total = 0
i = 1
while i <= 3:
    total = total + square(i)
    i = i + 1
print(total)
`
	rec := pytracker.New()
	var out strings.Builder
	if err := rec.LoadProgram("p.py", core.WithSource(src), core.WithStdout(&out)); err != nil {
		t.Fatal(err)
	}
	trace, err := pt.Record(rec, &out, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := ttd.FromTrace(trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	live := pytracker.New()
	if err := live.LoadProgram("p.py", core.WithSource(src), core.WithStdout(&strings.Builder{})); err != nil {
		t.Fatal(err)
	}
	v1, v2 := New(), New()
	if err := v1.LoadTrace(trace); err != nil {
		t.Fatal(err)
	}
	if err := v2.LoadStore(store); err != nil {
		t.Fatal(err)
	}
	transcripts := map[string][]string{}
	for name, tr := range map[string]surfaceTracker{"live": live, "v1": v1, "v2": v2} {
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		if err := tr.BreakBeforeLine("", 2); err != nil {
			t.Fatal(err)
		}
		transcripts[name] = stepPauses(t, tr, tr.Next)
	}
	want := transcripts["live"]
	if hits := strings.Count(strings.Join(want, "\n"), "BREAKPOINT @2"); hits != 3 {
		t.Fatalf("live Next paused at the breakpoint %d times, want 3: %q", hits, want)
	}
	for _, name := range []string{"v1", "v2"} {
		if got := transcripts[name]; strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("Next %s vs live:\n got %q\nwant %q", name, got, want)
		}
	}
}
