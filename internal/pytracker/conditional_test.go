package pytracker

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/tracetracker"
)

// Conditional-probe semantics on the MiniPy tracker: conditions compile at
// arm time, evaluate in the line hook against the live frame, and compose
// with ignore counts and one-shot disarming.

const bumpProg = `g = 0

def bump(i):
    global g
    g = i

for i in range(5):
    bump(i)
print(g)
`

func TestConditionalLineBreak(t *testing.T) {
	tr := start(t, fibProg)
	if err := tr.BreakBeforeLine("prog.py", 2, core.WithCondition("n == 2")); err != nil {
		t.Fatalf("arm: %v", err)
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if err := tr.Resume(); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		hits++
		fr, err := tr.CurrentFrame()
		if err != nil {
			t.Fatalf("frame: %v", err)
		}
		v := fr.Lookup("n")
		if v == nil {
			t.Fatal("no n at conditional pause")
		}
		// Variables are reference cells; the payload sits behind a deref.
		if n, ok := v.Value.Deref().Int(); !ok || n != 2 {
			t.Errorf("paused with n = %d (ok=%v), want 2", n, ok)
		}
	}
	// fib(4) reaches fib(2) exactly twice.
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
}

func TestConditionalBreakBadQuery(t *testing.T) {
	tr := start(t, fibProg)
	err := tr.BreakBeforeLine("prog.py", 2, core.WithCondition("n =="))
	if err == nil {
		t.Fatal("expected error for bad condition")
	}
	if !errors.Is(err, core.ErrBadQuery) {
		t.Errorf("error %v does not unwrap to ErrBadQuery", err)
	}
	var te *core.TrackerError
	if !errors.As(err, &te) || te.Op != "BreakBeforeLine" {
		t.Errorf("error %v is not a TrackerError for BreakBeforeLine", err)
	}
}

func TestIgnoreHits(t *testing.T) {
	tr := start(t, fibProg)
	if err := tr.BreakBeforeLine("prog.py", 2, core.WithIgnoreHits(3)); err != nil {
		t.Fatalf("arm: %v", err)
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if err := tr.Resume(); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		hits++
	}
	// fib is entered 9 times for fib(4); the first 3 line-2 hits are eaten.
	if hits != 6 {
		t.Errorf("hits = %d, want 6", hits)
	}
}

func TestOneShot(t *testing.T) {
	tr := start(t, fibProg)
	if err := tr.BreakBeforeLine("prog.py", 2, core.WithOneShot()); err != nil {
		t.Fatalf("arm: %v", err)
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if err := tr.Resume(); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		hits++
	}
	if hits != 1 {
		t.Errorf("hits = %d, want 1 (one-shot)", hits)
	}
}

func TestConditionalTrackEventFilter(t *testing.T) {
	tr := start(t, fibProg)
	if err := tr.TrackFunction("fib", core.WithCondition(`event == "return"`)); err != nil {
		t.Fatalf("arm: %v", err)
	}
	calls, rets := 0, 0
	for i := 0; i < 1000; i++ {
		if err := tr.Resume(); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		switch tr.PauseReason().Type {
		case core.PauseCall:
			calls++
		case core.PauseReturn:
			rets++
		}
	}
	if calls != 0 {
		t.Errorf("calls = %d, want 0 (condition selects returns only)", calls)
	}
	if rets != 9 {
		t.Errorf("returns = %d, want 9", rets)
	}
}

// TestConditionalWatch pins the snapshot semantics: while the condition is
// false the reference snapshot does not advance (though the baseline is
// established), so the first in-window report is relative to the last
// pre-window value, not the last mutation.
func TestConditionalWatch(t *testing.T) {
	tr := start(t, bumpProg)
	if err := tr.Watch("::g", core.WithCondition("i > 3")); err != nil {
		t.Fatalf("arm: %v", err)
	}
	deref := func(v *core.Value) string {
		if v == nil {
			return "<nil>"
		}
		if d := v.Deref(); d != nil {
			v = d
		}
		return v.String()
	}
	var pauses []string
	for i := 0; i < 1000; i++ {
		if err := tr.Resume(); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		r := tr.PauseReason()
		pauses = append(pauses, deref(r.Old)+"->"+deref(r.New))
	}
	// g runs 0,1,2,3,4; only the i=4 iteration is inside the window. The
	// first in-window event sees g already at 3 and reports it against the
	// frozen baseline 0; the g=4 mutation then reports normally.
	want := []string{"0->3", "3->4"}
	if fmt.Sprint(pauses) != fmt.Sprint(want) {
		t.Errorf("watch pauses = %v, want %v", pauses, want)
	}
}

func TestArmUnifiedSurface(t *testing.T) {
	tr := start(t, fibProg)
	if err := tr.Arm(core.LineProbe("prog.py", 2, core.WithCondition("n == 0"))); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if err := tr.Resume(); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		hits++
	}
	if hits != 2 {
		t.Errorf("hits = %d, want 2 (fib(0) is reached twice)", hits)
	}
	if err := tr.Arm(core.Probe{Kind: core.ProbeKind(99)}); !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("unknown probe kind: err = %v, want ErrUnsupported", err)
	}
}

func TestConditionalCapability(t *testing.T) {
	tr := New()
	caps := core.CapabilitiesOf(tr)
	if !caps.ConditionalBreak {
		t.Error("MiniPy tracker should advertise ConditionalBreak")
	}
}

// TestConditionalCrossEngine is the differential assertion across the two
// surfaces that evaluate probes: the same conditional probes fire on the
// identical pause sequence whether the program runs live on the VM or its
// recording is replayed by the trace tracker. Both call one classifier,
// ttd.Probes.Classify, over different views: the live frame and the
// recorded timeline. The conditions read a local, the event and the depth,
// so both views are compared; ignore counts and one-shot latches are spent
// alike; and a conditioned watch holds its snapshot while the condition is
// false on both, so a change made outside the window is reported at the
// first event back inside it (TestConditionalWatch).
func TestConditionalCrossEngine(t *testing.T) {
	type arm func(tr core.Tracker) error
	cases := []struct {
		name string
		src  string
		arm  arm
	}{
		{"cond line", fibProg, func(tr core.Tracker) error {
			return tr.BreakBeforeLine("prog.py", 2, core.WithCondition("n < 2"))
		}},
		{"cond track", fibProg, func(tr core.Tracker) error {
			return tr.TrackFunction("fib", core.WithCondition(`event == "call" && depth > 2`))
		}},
		{"ignore+oneshot", fibProg, func(tr core.Tracker) error {
			return tr.BreakBeforeLine("prog.py", 2, core.WithIgnoreHits(2), core.WithOneShot())
		}},
		{"cond watch", bumpProg, func(tr core.Tracker) error {
			return tr.Watch("::g", core.WithCondition("i % 2 == 0"))
		}},
	}
	trail := func(tr core.Tracker, a arm) []string {
		if err := a(tr); err != nil {
			t.Fatalf("arm: %v", err)
		}
		var out []string
		for i := 0; i < 10000; i++ {
			if err := tr.Resume(); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if _, done := tr.ExitCode(); done {
				return out
			}
			r := tr.PauseReason()
			_, line := tr.Position()
			pause := fmt.Sprintf("%s@%d:%s", r.Type, line, r.Function)
			if r.Type == core.PauseWatch {
				pause += fmt.Sprintf(" %v->%v", r.Old, r.New)
			}
			out = append(out, pause)
		}
		t.Fatal("program did not terminate")
		return nil
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := start(t, tc.src, core.WithRecording(0), core.WithStdout(io.Discard))
			vm := trail(live, tc.arm)
			if len(vm) == 0 {
				t.Fatal("the live session never paused")
			}
			rp := tracetracker.New()
			if err := rp.LoadStore(live.rec.Store()); err != nil {
				t.Fatal(err)
			}
			if err := rp.Start(); err != nil {
				t.Fatal(err)
			}
			if replay := trail(rp, tc.arm); fmt.Sprint(vm) != fmt.Sprint(replay) {
				t.Errorf("engines diverge:\n  vm:     %v\n  replay: %v", vm, replay)
			}
		})
	}
}
