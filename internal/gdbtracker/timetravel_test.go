package gdbtracker

import (
	"errors"
	"fmt"
	"testing"

	"easytracker/internal/core"
)

const loopC = `int main() {
    int s = 0;
    int i = 0;
    while (i < 5) {
        s = s + i;
        i = i + 1;
    }
    printf("%d\n", s);
    return 0;
}`

// TestTimeTravelStepBackSeek drives the MI record/step-back/seek round trip:
// states inspected at live stops must be reproduced when seeking back to the
// same recorded steps.
func TestTimeTravelStepBackSeek(t *testing.T) {
	tr := start(t, loopC, core.WithRecording(0))

	type stopShot struct {
		pos  int
		line int
		s    string
		i    string
	}
	lookup := func(name string) string {
		fr, err := tr.CurrentFrame()
		if err != nil {
			return "<err>"
		}
		if v := fr.Lookup(name); v != nil {
			return v.Value.String()
		}
		return "<undef>"
	}
	var shots []stopShot
	for n := 0; n < 8; n++ {
		_, line := tr.Position()
		shots = append(shots, stopShot{pos: tr.Pos(), line: line, s: lookup("s"), i: lookup("i")})
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() < 8 {
		t.Fatalf("recording has %d steps, want >= 8", tr.Len())
	}

	// Seek back to every captured stop and compare inspection.
	for _, sh := range shots {
		if err := tr.SeekTo(sh.pos); err != nil {
			t.Fatalf("SeekTo(%d): %v", sh.pos, err)
		}
		if got := tr.Pos(); got != sh.pos {
			t.Fatalf("Pos after SeekTo(%d) = %d", sh.pos, got)
		}
		if _, line := tr.Position(); line != sh.line {
			t.Fatalf("line at step %d = %d, want %d", sh.pos, line, sh.line)
		}
		if got := lookup("s"); got != sh.s {
			t.Fatalf("s at step %d = %s, want %s", sh.pos, got, sh.s)
		}
		if got := lookup("i"); got != sh.i {
			t.Fatalf("i at step %d = %s, want %s", sh.pos, got, sh.i)
		}
	}

	// StepBack walks the cursor down one recorded stop at a time.
	if err := tr.SeekTo(3); err != nil {
		t.Fatal(err)
	}
	for want := 2; want >= 0; want-- {
		if err := tr.StepBack(); err != nil {
			t.Fatal(err)
		}
		if got := tr.Pos(); got != want {
			t.Fatalf("Pos after StepBack = %d, want %d", got, want)
		}
	}
	if tr.PauseReason().Type != core.PauseEntry {
		t.Fatalf("reason at step 0 = %v", tr.PauseReason())
	}

	// Forward execution returns to the live present and keeps recording.
	before := tr.Len()
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if tr.replaying() {
		t.Fatal("still rewound after a forward step")
	}
	if tr.Len() <= before {
		t.Fatalf("recording did not grow: %d -> %d", before, tr.Len())
	}

	// Run to exit; reverse navigation still inspects the recording.
	for {
		if _, done := tr.ExitCode(); done {
			break
		}
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.StepBack(); err != nil {
		t.Fatalf("StepBack after exit: %v", err)
	}
	st, err := tr.State()
	if err != nil || st.Frame == nil {
		t.Fatalf("state after post-exit StepBack: %+v, %v", st, err)
	}
	if code, ok := tr.ExitCode(); !ok || code != 0 {
		t.Fatalf("exit code lost while rewound: %d, %v", code, ok)
	}
}

// TestTimeTravelGate checks the capability surface is tied to WithRecording.
func TestTimeTravelGate(t *testing.T) {
	plain := start(t, loopC)
	if _, ok := core.As[core.TimeTraveler](plain); ok {
		t.Fatal("TimeTraveler advertised without recording")
	}
	if err := plain.StepBack(); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("StepBack without recording = %v", err)
	}

	rec := start(t, loopC, core.WithRecording(4))
	tt, ok := core.As[core.TimeTraveler](rec)
	if !ok {
		t.Fatal("TimeTraveler not advertised with recording")
	}
	if err := rec.Step(); err != nil {
		t.Fatal(err)
	}
	if err := tt.StepBack(); err != nil {
		t.Fatal(err)
	}
	if err := rec.ResumeBack(); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("ResumeBack over MI = %v", err)
	}
}

// TestTimeTravelRewoundInspectors: the recording holds neither registers,
// raw memory, the segment table nor store counters, so while inspection is
// rewound Registers, ValueAt, HeapBlocks and WatchVersions fail with
// ErrUnsupported and MemorySegments is nil instead of answering from the
// present; after a forward Step they answer again.
func TestTimeTravelRewoundInspectors(t *testing.T) {
	tr := start(t, loopC, core.WithRecording(0), core.WithHeapTracking())
	for i := 0; i < 4; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	regs, err := tr.Registers()
	if err != nil {
		t.Fatal(err)
	}
	sp := regs["sp"]
	inspectors := []struct {
		name string
		call func() error
	}{
		{"Registers", func() error { _, err := tr.Registers(); return err }},
		{"ValueAt", func() error { _, err := tr.ValueAt(sp, 8); return err }},
		{"HeapBlocks", func() error { _, err := tr.HeapBlocks(); return err }},
		{"WatchVersions", func() error { _, err := tr.WatchVersions(); return err }},
	}
	if err := tr.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	for _, in := range inspectors {
		if err := in.call(); !errors.Is(err, core.ErrUnsupported) {
			t.Errorf("%s while rewound = %v, want ErrUnsupported", in.name, err)
		}
	}
	if segs := tr.MemorySegments(); segs != nil {
		t.Errorf("MemorySegments while rewound = %v, want nil", segs)
	}
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	for _, in := range inspectors {
		if err := in.call(); err != nil {
			t.Errorf("%s after a forward Step: %v", in.name, err)
		}
	}
	if len(tr.MemorySegments()) == 0 {
		t.Error("MemorySegments after a forward Step is empty")
	}
}

// sumC steps through enough pauses to reach any command count a
// -die-after crash is set for.
const sumC = `int main() {
    int s = 0;
    for (int i = 0; i < 40; i++) {
        s = s + i;
    }
    printf("%d\n", s);
    return 0;
}`

// TestSubprocessTimeTravel runs recording sessions against a minigdb child
// process: one steps, seeks and steps back across the real pipe; one has
// the child crash mid-run, and after session recovery the recording is the
// re-run's alone.
func TestSubprocessTimeTravel(t *testing.T) {
	bin := buildMinigdb(t)
	load := func(t *testing.T, args ...string) *Tracker {
		t.Helper()
		tr := NewSubprocess(bin, args...)
		if err := tr.LoadProgram("sum.c", core.WithSource(sumC), core.WithRecording(0)); err != nil {
			t.Fatalf("load: %v", err)
		}
		t.Cleanup(func() { _ = tr.Terminate() })
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// shot renders what inspection shows at the current pause.
	shot := func(t *testing.T, tr *Tracker) string {
		t.Helper()
		st, err := tr.State()
		if err != nil {
			t.Fatal(err)
		}
		_, line := tr.Position()
		s := "<undef>"
		if v := st.Frame.Lookup("s"); v != nil {
			s = v.Value.String()
		}
		return fmt.Sprintf("%v, line %d, s=%s", tr.PauseReason().Type, line, s)
	}

	t.Run("pipe", func(t *testing.T) {
		tr := load(t)
		var shots []string
		for i := 0; i < 6; i++ {
			if p := tr.Pos(); p != i {
				t.Fatalf("pause %d at recorded step %d", i, p)
			}
			shots = append(shots, shot(t, tr))
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for i := len(shots) - 1; i >= 0; i-- {
			if err := tr.SeekTo(i); err != nil {
				t.Fatal(err)
			}
			if got := shot(t, tr); got != shots[i] {
				t.Errorf("SeekTo(%d): %s, live it was %s", i, got, shots[i])
			}
		}
		if err := tr.SeekTo(3); err != nil {
			t.Fatal(err)
		}
		if err := tr.StepBack(); err != nil {
			t.Fatal(err)
		}
		if p := tr.Pos(); p != 2 {
			t.Fatalf("Pos after StepBack from 3 = %d", p)
		}
		if got := shot(t, tr); got != shots[2] {
			t.Errorf("StepBack to 2: %s, live it was %s", got, shots[2])
		}
		before := tr.Len()
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		if tr.replaying() || tr.Len() != before+1 {
			t.Fatalf("after a forward Step: rewound %v, %d -> %d steps", tr.replaying(), before, tr.Len())
		}
	})

	t.Run("recovery", func(t *testing.T) {
		// The child exits when its 21st command arrives; the respawned
		// one serves 20 more, enough for everything below.
		tr := load(t, "-die-after", "20")
		var err error
		for i := 0; i < 200 && err == nil; i++ {
			if _, done := tr.ExitCode(); done {
				t.Fatal("inferior finished before the injected crash")
			}
			err = tr.Step()
		}
		if te := sessionError(t, err); te.Recovery != core.RecoveryRestarted {
			t.Fatalf("recovery = %v, want restarted (%v)", te.Recovery, err)
		}
		if n, p := tr.Len(), tr.Pos(); n != 1 || p != 0 {
			t.Fatalf("after recovery: Pos %d of %d, want the re-run's entry alone (0 of 1)", p, n)
		}
		if err := tr.SeekTo(1); err == nil {
			t.Fatal("SeekTo(1) reached past the re-run's entry")
		}
		var shots []string
		for i := 0; i < 3; i++ {
			shots = append(shots, shot(t, tr))
			if i < 2 {
				if err := tr.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := tr.Len(); n != 3 {
			t.Fatalf("re-run recorded %d steps, want 3", n)
		}
		if err := tr.StepBack(); err != nil {
			t.Fatal(err)
		}
		if got := shot(t, tr); tr.Pos() != 1 || got != shots[1] {
			t.Errorf("StepBack: step %d shows %s, want step 1: %s", tr.Pos(), got, shots[1])
		}
		if err := tr.SeekTo(0); err != nil {
			t.Fatal(err)
		}
		if got := shot(t, tr); got != shots[0] {
			t.Errorf("SeekTo(0): %s, want the re-run's entry: %s", got, shots[0])
		}
	})
}
