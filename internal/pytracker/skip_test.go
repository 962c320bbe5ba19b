package pytracker

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/minipy"
)

// probeShape is etbench probe-py's program shape at a fixed seed: a quiet
// stretch (idle, with a conditional breakpoint on its hot line) and a busy
// one (work, in which nothing is armed or watched), under watches on a
// global, a local of run and a global list, a conditionally tracked
// function and an ignore count.
func probeShape(rounds int) (src string, hot int) {
	lines := []string{
		"counter = 0",
		"data = [3] * 1",
		"def work(k, n):",
		"    t = 0",
		"    j = 0",
		"    while j < n:",
		"        t = (t + k + 4) % 97",
		"        j = j + 1",
		"    return t",
		"def idle(k):",
		"    t = 0",
		"    q = 0",
		"    while q < 5:",
		"        j = 0",
		"        while j < 240:",
		"            t = (t + k + 7) % 89",
		"            j = j + 1",
		"        q = q + 1",
		"    return t",
		"def run(rounds, acc):",
		"    global counter",
		"    total = 0",
		"    stage = 0",
		"    r = 0",
		"    while r < rounds:",
		"        total = (total + idle(r)) % 211",
		"        i = 0",
		"        while i < 4:",
		"            total = (total + work(i, 250)) % 211",
		"            if i % 3 == 0:",
		"                counter = counter + 1",
		"            elif i % 3 == 1:",
		"                stage = stage + 1",
		"            else:",
		"                acc[(r + i) % 1] = acc[(r + i) % 1] + 1",
		"            i = i + 1",
		"        r = r + 1",
		"    return total",
		fmt.Sprintf("print(run(%d, data), counter)", rounds),
	}
	return strings.Join(lines, "\n") + "\n", 16
}

// armProbeShape arms probe-py's probes on tr.
func armProbeShape(t *testing.T, tr *Tracker, hot int) {
	t.Helper()
	probes := []core.Probe{
		core.WatchProbe("::counter", core.WithIgnoreHits(2)),
		core.WatchProbe("run:stage"),
		core.WatchProbe("::data"),
		core.LineProbe("", hot, core.WithCondition("q == 4 && j == 239 && k % 2 == 1")),
		core.TrackProbe("idle", core.WithCondition("k % 2 == 0")),
	}
	for _, p := range probes {
		if err := tr.Arm(p); err != nil {
			t.Fatal(err)
		}
	}
}

// countHook wraps the tracker's trace hook with one that counts its calls,
// as TestCrashContainment wraps it with one that panics.
func countHook(tr *Tracker) *int {
	calls := new(int)
	real := tr.traceFn
	tr.interp.SetTrace(func(fr *minipy.RTFrame, ev minipy.Event, ret *minipy.Object) error {
		*calls++
		return real(fr, ev, ret)
	})
	return calls
}

// TestResumeSkipsLinesNoProbeCanFireAt pins the delivery rule's shape on
// probe-py's program: a Resume to exit with its probes armed calls the
// hook at fewer than a quarter of the executed lines. The hot line of idle
// is armed and a third of idle's lines; work's lines reach the hook only
// after its call and return.
func TestResumeSkipsLinesNoProbeCanFireAt(t *testing.T) {
	src, hot := probeShape(3)
	tr := load(t, src)
	calls := countHook(tr)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	armProbeShape(t, tr, hot)
	pauses := 0
	for {
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		pauses++
	}
	steps := tr.interp.Steps()
	t.Logf("%d pauses, %d hook calls over %d lines", pauses, *calls, steps)
	if pauses == 0 {
		t.Fatal("no probe fired")
	}
	if int64(*calls)*4 >= steps {
		t.Fatalf("%d hook calls over %d executed lines: want fewer than a quarter", *calls, steps)
	}
}

// skipProg calls through two levels inside a loop, so a session that
// skips lines pauses in and out of frames, and leaf's loop runs most of
// its lines where nothing is armed or watched.
const skipProg = `g = 0
def leaf(n):
    m = 0
    i = 0
    while i < n:
        m = m + 2
        i = i + 1
    return m
def mid(n):
    a = leaf(n)
    b = a + 1
    return b
k = 0
while k < 8:
    g = g + mid(k)
    k = k + 1
print(g)
`

// armSkipProbes arms a line breakpoint in leaf's loop, a watch on g and a
// tracked mid on tr.
func armSkipProbes(t *testing.T, tr *Tracker) {
	t.Helper()
	for _, p := range []core.Probe{
		core.LineProbe("", 6, core.WithCondition("n % 2 == 1 && i == 2")),
		core.WatchProbe("::g"),
		core.TrackProbe("mid", core.WithCondition("n == 3")),
	} {
		if err := tr.Arm(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLastLineWhenLinesAreSkipped: at every pause of a Resume-driven
// session, which skips lines, LastLine reports what a Step-driven session
// reports at the same pause, the exit included.
func TestLastLineWhenLinesAreSkipped(t *testing.T) {
	// transcript drives a session with move to exit and renders every
	// pause but a Step's own STEP pauses, with LastLine at each.
	transcript := func(move func(*Tracker) error) (got []string, calls int, steps int64) {
		tr := start(t, skipProg)
		n := countHook(tr)
		armSkipProbes(t, tr)
		for i := 0; i < 10000; i++ {
			if err := move(tr); err != nil {
				t.Fatal(err)
			}
			if _, done := tr.ExitCode(); done {
				got = append(got, fmt.Sprintf("exit, last line %d", tr.LastLine()))
				return got, *n, tr.interp.Steps()
			}
			if r := tr.PauseReason(); r.Type != core.PauseStep {
				got = append(got, fmt.Sprintf("%s %s@%d, last line %d", r.Type, r.Variable, r.Line, tr.LastLine()))
			}
		}
		t.Fatal("session did not finish")
		return nil, 0, 0
	}
	resumed, calls, steps := transcript((*Tracker).Resume)
	stepped, _, _ := transcript((*Tracker).Step)
	if int64(calls) >= steps {
		t.Errorf("Resume called the hook %d times over %d lines: none skipped", calls, steps)
	}
	if len(resumed) < 5 {
		t.Fatalf("only %d pauses: %q", len(resumed), resumed)
	}
	if strings.Join(resumed, "\n") != strings.Join(stepped, "\n") {
		t.Errorf("Resume and Step disagree on LastLine\n--- Resume ---\n%s\n--- Step ---\n%s",
			strings.Join(resumed, "\n"), strings.Join(stepped, "\n"))
	}
}

// TestLinesTracedCountsSkippedLines: lines_traced counts every executed
// line, the ones the hook never saw included.
func TestLinesTracedCountsSkippedLines(t *testing.T) {
	mod, err := minipy.Parse("prog.py", skipProg)
	if err != nil {
		t.Fatal(err)
	}
	bare := minipy.NewInterp(mod)
	lines := 0
	bare.SetTrace(func(_ *minipy.RTFrame, ev minipy.Event, _ *minipy.Object) error {
		if ev == minipy.EventLine {
			lines++
		}
		return nil
	})
	if _, err := bare.Run(); err != nil {
		t.Fatal(err)
	}

	tr := start(t, skipProg, core.WithObservability())
	calls := countHook(tr)
	armSkipProbes(t, tr)
	runToExit(t, tr)
	if got := tr.Stats().Counters[core.CtrLinesTraced]; got != uint64(lines) {
		t.Errorf("lines_traced = %d, want %d executed lines", got, lines)
	}
	if *calls >= lines {
		t.Errorf("Resume called the hook %d times over %d lines: none skipped", *calls, lines)
	}
}

// TestCrashBacktraceWhenLinesAreSkipped: a panic on a line the hook never
// saw, right after a call returned, still reports a backtrace rooted at
// the frame that panicked, not at the last frame the hook saw.
func TestCrashBacktraceWhenLinesAreSkipped(t *testing.T) {
	src := `def leaf():
    return 1

def inner():
    t = 0
    t = t + 1
    x = leaf() + boom()
    return x

def outer():
    return inner()

outer()
`
	tr := load(t, src)
	tr.interp.Globals.Set("boom", &minipy.Object{Kind: minipy.OBuiltin, Bi: &minipy.Builtin{
		Name: "boom",
		Fn: func(*minipy.Interp, []*minipy.Object) (*minipy.Object, error) {
			panic("interpreter bug: corrupted builtin")
		},
	}})
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	err := tr.Resume()
	var te *core.TrackerError
	if !errors.As(err, &te) || len(te.Backtrace) < 2 {
		t.Fatalf("Resume over a panicking builtin: %v", err)
	}
	if !strings.HasPrefix(te.Backtrace[0], "inner at line 7") || !strings.HasPrefix(te.Backtrace[1], "outer") {
		t.Errorf("backtrace = %q, want inner at line 7, then outer", te.Backtrace)
	}
}

// TestReloadKeepsArmedProbes: a breakpoint armed before the program is
// loaded again still reaches the new interpreter, whose Resume skips the
// lines nothing is armed at.
func TestReloadKeepsArmedProbes(t *testing.T) {
	src := "a = 1\nb = 2\nc = 3\nd = 4\n"
	tr := load(t, src)
	if err := tr.BreakBeforeLine("", 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadProgram("prog.py", core.WithSource(src)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if r := tr.PauseReason(); r.Type != core.PauseBreakpoint || r.Line != 3 {
		t.Errorf("after a reload Resume paused at %v, want the breakpoint at line 3", r)
	}
}

// TestWatchedSlotsBeyondTheMarkWord: slots from 63 up share a Scope's last
// mark bit, so a watch on a late global or local still sees every write
// to it on a plain session, as on a recording one, which sees every line.
func TestWatchedSlotsBeyondTheMarkWord(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&b, "g%d = %d\n", i, i)
	}
	b.WriteString("def f(n):\n")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&b, "    v%d = n + %d\n", i, i)
	}
	b.WriteString("    v69 = v69 + v68\n    return v69\n")
	b.WriteString("k = 0\nwhile k < 3:\n    g69 = g69 + f(k)\n    g68 = k\n    k = k + 1\n")
	src := b.String()
	ids := []string{"::g69", "f:v69"}
	plain := probeTranscript(t, src, ids, 1)
	rec := probeTranscript(t, src, ids, 1, core.WithRecording(0))
	if strings.Count(plain, "WATCH") < 6 {
		t.Fatalf("too few watch pauses:\n%s", plain)
	}
	if plain != rec {
		t.Errorf("plain and recording sessions differ\n--- plain ---\n%s--- recording ---\n%s", plain, rec)
	}
}
