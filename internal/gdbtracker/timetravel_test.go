package gdbtracker

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/tracetracker"
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
	if tr.Rewound() {
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

// TestTimeTravelGate checks the capability surface is tied to WithRecording,
// and that ResumeBack stays unsupported: the tracker has no reverse
// classifier.
func TestTimeTravelGate(t *testing.T) {
	plain := start(t, loopC)
	if _, ok := core.As[core.TimeTraveler](plain); ok {
		t.Fatal("TimeTraveler advertised without recording")
	}
	if _, ok := core.As[core.ReverseWatcher](plain); ok {
		t.Fatal("ReverseWatcher advertised without recording")
	}
	if err := plain.StepBack(); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("StepBack without recording = %v", err)
	}

	rec := start(t, loopC, core.WithRecording(4))
	tt, ok := core.As[core.TimeTraveler](rec)
	if !ok {
		t.Fatal("TimeTraveler not advertised with recording")
	}
	if _, ok := core.As[core.ReverseWatcher](rec); !ok {
		t.Fatal("ReverseWatcher not advertised with recording")
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

// writesC writes the global g several times, in main and inside calls.
const writesC = `int g = 0;

int bump(int k) {
    g = g + k;
    return g;
}

int main() {
    int i = 0;
    while (i < 4) {
        bump(i);
        i = i + 1;
    }
    g = 100;
    return 0;
}`

// TestTimeTravelMatchesReplay: a recording session's StepBack, NextBack
// and SeekTo agree with a trace replay of the session's own recording
// driven the same way. After every move Pos, Position, LastLine and the
// LastChange of three variables are equal, mid-run and after the exit.
// PauseReason is left out: a MiniGDB landing reports the pause recorded
// there, a replay the ENTRY or STEP of ttd.Landing.
func TestTimeTravelMatchesReplay(t *testing.T) {
	type traveler interface {
		core.Tracker
		core.TimeTraveler
		core.ReverseWatcher
	}
	live := start(t, writesC, core.WithRecording(0))
	// replay loads the recording so far and drives it as forward drove
	// the live session.
	replay := func(forward func(traveler) error) traveler {
		t.Helper()
		data, err := live.rec.Store().Trace().Encode()
		if err != nil {
			t.Fatal(err)
		}
		rp := tracetracker.New()
		if err := rp.LoadProgram("writes.trace", core.WithSource(string(data))); err != nil {
			t.Fatal(err)
		}
		if err := rp.Start(); err != nil {
			t.Fatal(err)
		}
		if err := forward(rp); err != nil {
			t.Fatal(err)
		}
		return rp
	}
	shot := func(tk traveler) string {
		_, line := tk.Position()
		s := fmt.Sprintf("pos %d, line %d, last line %d", tk.Pos(), line, tk.LastLine())
		for _, v := range []string{"::g", "main:i", "bump:k"} {
			ch, err := tk.LastChange(v)
			if err != nil {
				s += fmt.Sprintf(", %s unknown %v", v, errors.Is(err, core.ErrUnknownVariable))
				continue
			}
			data, _ := json.Marshal(ch)
			s += ", " + string(data)
		}
		return s
	}
	moves := []struct {
		name string
		move func(traveler) error
	}{
		{"StepBack", traveler.StepBack},
		{"NextBack", traveler.NextBack},
		{"SeekTo(9)", func(tk traveler) error { return tk.SeekTo(9) }},
		{"NextBack", traveler.NextBack},
		{"NextBack", traveler.NextBack},
		{"StepBack", traveler.StepBack},
		{"SeekTo(5)", func(tk traveler) error { return tk.SeekTo(5) }},
		{"NextBack", traveler.NextBack},
		{"StepBack", traveler.StepBack},
		{"SeekTo(0)", func(tk traveler) error { return tk.SeekTo(0) }},
		{"NextBack", traveler.NextBack},
	}
	compare := func(phase string, rp traveler) {
		t.Helper()
		for _, m := range moves {
			if err := m.move(live); err != nil {
				t.Fatalf("%s: live %s: %v", phase, m.name, err)
			}
			if err := m.move(rp); err != nil {
				t.Fatalf("%s: replay %s: %v", phase, m.name, err)
			}
			if got, want := shot(live), shot(rp); got != want {
				t.Errorf("%s, after %s:\nlive:   %s\nreplay: %s", phase, m.name, got, want)
			}
		}
	}
	steps := func(tk traveler) error {
		for i := 0; i < 12; i++ {
			if err := tk.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := steps(live); err != nil {
		t.Fatal(err)
	}
	compare("mid-run", replay(steps))

	// The rest of the run is one Resume: the loop's last calls and the
	// final g = 100 run after the last pause, and only the exit sees them.
	toExit := func(tk traveler) error { return tk.Resume() }
	if err := toExit(live); err != nil {
		t.Fatal(err)
	}
	if _, done := live.ExitCode(); !done {
		t.Fatal("Resume did not run to the exit")
	}
	if ch, err := live.LastChange("::g"); err != nil || ch.Val.String() != "100" {
		t.Fatalf("LastChange(::g) after the exit = %+v, %v; want the program's last write, g = 100", ch, err)
	}
	rp := replay(toExit)
	if got, want := shot(live), shot(rp); got != want {
		t.Errorf("at the exit:\nlive:   %s\nreplay: %s", got, want)
	}
	compare("after the exit", rp)
}

// trackC calls f twice from main and stores each result in x.
const trackC = `int f(int n) {
    int m = n + 1;
    return m;
}

int x = 0;

int main() {
    x = f(x);
    x = f(x);
    printf("%d\n", x);
    return 0;
}`

// TestTimeTravelNextBackOverTrackedCalls: with f tracked and x watched the
// pauses are ENTRY, then CALL f, RETURN f and WATCH x twice. A RETURN pause
// stops at f's ret, still inside f, so its State holds f's own locals above
// main's frame, and NextBack from a pause in main steps over the call.
func TestTimeTravelNextBackOverTrackedCalls(t *testing.T) {
	tr := start(t, trackC, core.WithRecording(0))
	if err := tr.TrackFunction("f"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Watch("::x"); err != nil {
		t.Fatal(err)
	}
	pause := func() string {
		t.Helper()
		st, err := tr.State()
		if err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprintf("%s in", tr.PauseReason().Type)
		for _, fr := range st.Frame.Stack() {
			s += fmt.Sprintf(" %s/%d", fr.Name, fr.Depth)
			for _, v := range fr.Vars {
				s += fmt.Sprintf(" %s=%s", v.Name, v.Value)
			}
		}
		return s
	}
	got := []string{pause()}
	for i := 0; i < 6; i++ {
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		got = append(got, pause())
	}
	want := []string{
		"ENTRY in main/0",
		"CALL in f/1 n=0 main/0",
		"RETURN in f/1 n=0 m=1 main/0",
		"WATCH in main/0",
		"CALL in f/1 n=1 main/0",
		"RETURN in f/1 n=1 m=2 main/0",
		"WATCH in main/0",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("pauses:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, c := range []struct{ from, to int }{{6, 3}, {3, 0}, {5, 4}, {2, 1}} {
		if err := tr.SeekTo(c.from); err != nil {
			t.Fatal(err)
		}
		if err := tr.NextBack(); err != nil {
			t.Fatal(err)
		}
		if tr.Pos() != c.to || pause() != want[c.to] {
			t.Errorf("NextBack from step %d lands on step %d (%s), want %d (%s)", c.from, tr.Pos(), pause(), c.to, want[c.to])
		}
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
		if tr.Rewound() || tr.Len() != before+1 {
			t.Fatalf("after a forward Step: rewound %v, %d -> %d steps", tr.Rewound(), before, tr.Len())
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
