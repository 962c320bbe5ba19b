package tracetracker

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/gdbtracker"
	"easytracker/internal/pt"
	"easytracker/internal/ttd"
)

func startedReplay(t *testing.T) *Tracker {
	t.Helper()
	tr := loadReplay(t)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStepBackUndoesStep(t *testing.T) {
	tr := startedReplay(t)
	var forward []int
	for i := 0; i < 5; i++ {
		_, line := tr.Position()
		forward = append(forward, line)
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Walk back and compare positions in reverse.
	for i := 4; i >= 0; i-- {
		if err := tr.StepBack(); err != nil {
			t.Fatal(err)
		}
		_, line := tr.Position()
		if line != forward[i] {
			t.Fatalf("back to step %d: line %d, want %d", i, line, forward[i])
		}
	}
	if tr.PauseReason().Type != core.PauseEntry {
		t.Errorf("reason at position 0 = %v, want ENTRY", tr.PauseReason())
	}
	// StepBack at the entry stays at the entry.
	if err := tr.StepBack(); err != nil {
		t.Fatal(err)
	}
	if tr.Pos() != 0 {
		t.Errorf("pos = %d after StepBack at entry", tr.Pos())
	}
}

func TestReverseAfterExit(t *testing.T) {
	tr := startedReplay(t)
	for {
		if _, done := tr.ExitCode(); done {
			break
		}
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Reverse execution resurrects the replay.
	if err := tr.StepBack(); err != nil {
		t.Fatal(err)
	}
	if _, done := tr.ExitCode(); done {
		t.Fatal("still exited after StepBack")
	}
	if _, err := tr.CurrentFrame(); err != nil {
		t.Fatalf("frame after reverse: %v", err)
	}
	// And forward again to the same end.
	for {
		if _, done := tr.ExitCode(); done {
			break
		}
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if code, _ := tr.ExitCode(); code != 0 {
		t.Errorf("exit = %d", code)
	}
}

func TestResumeBackStopsAtBreakpoints(t *testing.T) {
	tr := startedReplay(t)
	if err := tr.TrackFunction("fib"); err != nil {
		t.Fatal(err)
	}
	// Run forward through all fib events.
	events := 0
	for {
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		events++
	}
	if events != 18 { // 9 calls + 9 returns for fib(4)
		t.Fatalf("forward events = %d", events)
	}
	// Now run backward: the same pause conditions fire in reverse.
	back := 0
	for {
		if err := tr.ResumeBack(); err != nil {
			t.Fatal(err)
		}
		if tr.Pos() == 0 {
			break
		}
		r := tr.PauseReason()
		if r.Type != core.PauseCall && r.Type != core.PauseReturn {
			t.Fatalf("reverse pause = %v", r)
		}
		back++
		if back > 50 {
			t.Fatal("runaway")
		}
	}
	if back != 18 {
		t.Errorf("reverse events = %d, want 18", back)
	}
}

func TestNextBack(t *testing.T) {
	tr := startedReplay(t)
	// Go deep into the recursion.
	for i := 0; i < 12; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fr, err := tr.CurrentFrame()
	if err != nil {
		t.Fatal(err)
	}
	depth := fr.Depth
	if err := tr.NextBack(); err != nil {
		t.Fatal(err)
	}
	fr2, err := tr.CurrentFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Depth > depth {
		t.Errorf("NextBack went deeper: %d -> %d", depth, fr2.Depth)
	}
}

func TestSeek(t *testing.T) {
	tr := startedReplay(t)
	n := tr.Len()
	if n < 10 {
		t.Fatalf("trace too short: %d", n)
	}
	if err := tr.SeekTo(7); err != nil {
		t.Fatal(err)
	}
	if tr.Pos() != 7 {
		t.Errorf("pos = %d", tr.Pos())
	}
	if _, err := tr.CurrentFrame(); err != nil {
		t.Fatal(err)
	}
	if err := tr.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	if tr.PauseReason().Type != core.PauseEntry {
		t.Errorf("reason = %v", tr.PauseReason())
	}
	if err := tr.SeekTo(n + 5); !errors.Is(err, core.ErrBadLine) {
		t.Errorf("out-of-range seek = %v", err)
	}
	// Seeking to the finished sentinel lands on the last real step.
	if err := tr.SeekTo(n - 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CurrentFrame(); err != nil {
		t.Fatalf("frame after seek-to-end: %v", err)
	}
}

// TestSeekRebasesLastLine is the regression test for the stale-lastLine
// bug: an absolute Seek used to leave LastLine at whatever the previous
// cursor position had, so the first post-seek observation reported a line
// transition that never happened. Every landing must report exactly the
// LastLine a forward walk to the same step observes.
func TestSeekRebasesLastLine(t *testing.T) {
	tr := startedReplay(t)
	type obs struct{ line, lastLine int }
	var forward []obs
	for i := 0; i < 12; i++ {
		_, line := tr.Position()
		forward = append(forward, obs{line: line, lastLine: tr.LastLine()})
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Scrambled landings, including jumps in both directions and a repeat.
	for _, pos := range []int{7, 2, 9, 0, 11, 5, 5} {
		if err := tr.SeekTo(pos); err != nil {
			t.Fatalf("SeekTo(%d): %v", pos, err)
		}
		_, line := tr.Position()
		if line != forward[pos].line {
			t.Errorf("line at step %d = %d, want %d", pos, line, forward[pos].line)
		}
		if got := tr.LastLine(); got != forward[pos].lastLine {
			t.Errorf("LastLine at step %d = %d, want %d (stale from previous position?)",
				pos, got, forward[pos].lastLine)
		}
	}
}

// stateJSON snapshots the replay's full state as canonical bytes.
func stateJSON(t *testing.T, tr *Tracker) string {
	t.Helper()
	st, err := tr.State()
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// roundTripStates drives the omniscience property on one loaded replay:
// walk forward capturing State() at every step, walk backward comparing
// byte-identically, then seek to every step in a scrambled order and
// compare again. Nothing about history may depend on how the cursor got
// there.
func roundTripStates(t *testing.T, tr *Tracker) {
	t.Helper()
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	last := tr.Len() - 2 // stop short of the finished sentinel
	if last < 2 {
		t.Fatalf("trace too short: %d", tr.Len())
	}
	forward := []string{stateJSON(t, tr)}
	for i := 0; i < last; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		forward = append(forward, stateJSON(t, tr))
	}
	for pos := last - 1; pos >= 0; pos-- {
		if err := tr.StepBack(); err != nil {
			t.Fatal(err)
		}
		if got := stateJSON(t, tr); got != forward[pos] {
			t.Fatalf("state at step %d differs after StepBack:\nforward: %s\nreverse: %s",
				pos, forward[pos], got)
		}
	}
	for _, pos := range []int{last, 1, last / 2, 0, last - 1, last / 3} {
		if err := tr.SeekTo(pos); err != nil {
			t.Fatalf("SeekTo(%d): %v", pos, err)
		}
		if got := stateJSON(t, tr); got != forward[pos] {
			t.Fatalf("state at step %d differs after SeekTo:\nforward: %s\nseek:    %s",
				pos, forward[pos], got)
		}
	}
}

// TestStepBackStateIdentity is the omniscience property test: on recorded
// minipy and minigdb executions, in both trace backings (v1 full states
// and v2 deltas + checkpoints), State() is byte-identical at every step no
// matter whether the cursor arrived by Step, StepBack or SeekTo.
func TestStepBackStateIdentity(t *testing.T) {
	recordC := func(t *testing.T) *pt.Trace {
		t.Helper()
		src := `int square(int n) {
    int s = n * n;
    return s;
}
int main() {
    int total = 0;
    for (int i = 1; i <= 3; i++) {
        total = total + square(i);
    }
    printf("%d\n", total);
    return 0;
}`
		gtr := gdbtracker.New()
		var out strings.Builder
		if err := gtr.LoadProgram("sq.c", core.WithSource(src), core.WithStdout(&out)); err != nil {
			t.Fatal(err)
		}
		trace, err := pt.Record(gtr, &out, pt.Options{Mode: pt.ModeFullStep, Lang: "minigdb"})
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	langs := []struct {
		name   string
		record func(t *testing.T) *pt.Trace
	}{
		{"minipy", record},
		{"minigdb", recordC},
	}
	for _, lang := range langs {
		trace := lang.record(t)
		t.Run(lang.name+"/v1", func(t *testing.T) {
			tr := New()
			if err := tr.LoadTrace(trace); err != nil {
				t.Fatal(err)
			}
			roundTripStates(t, tr)
		})
		t.Run(lang.name+"/v2", func(t *testing.T) {
			store, err := ttd.FromTrace(trace, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr := New()
			if err := tr.LoadStore(store); err != nil {
				t.Fatal(err)
			}
			roundTripStates(t, tr)
		})
	}
}

func TestReverseWatch(t *testing.T) {
	tr := startedReplay(t)
	if err := tr.Watch("::x"); err != nil {
		t.Fatal(err)
	}
	// Forward: x defined once (x = fib(4)).
	hits := 0
	for {
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		hits++
	}
	if hits != 1 {
		t.Fatalf("forward watch hits = %d", hits)
	}
	// Backward: crossing the definition in reverse pauses once too.
	back := 0
	for {
		if err := tr.ResumeBack(); err != nil {
			t.Fatal(err)
		}
		if tr.Pos() == 0 {
			break
		}
		if tr.PauseReason().Type == core.PauseWatch {
			back++
		}
	}
	if back != 1 {
		t.Errorf("reverse watch hits = %d, want 1", back)
	}
}
