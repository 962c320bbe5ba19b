package pytracker

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/ttd"
)

const recSessionProg = `def bump(v):
    v = v + 10
    return v

def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

a = 1
a = bump(a)
x = fib(4)
print(x)
print(a)
`

func startRecorded(t *testing.T, opts ...core.LoadOption) (*Tracker, *strings.Builder) {
	t.Helper()
	tr := New()
	var out strings.Builder
	opts = append([]core.LoadOption{
		core.WithSource(recSessionProg), core.WithStdout(&out), core.WithRecording(0),
	}, opts...)
	if err := tr.LoadProgram("rec.py", opts...); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	return tr, &out
}

// TestLiveRecordingSeekByteIdentity is the tentpole acceptance check on the
// live tracker: after a recorded run, seeking to any step yields State()
// JSON byte-identical to replaying the recording forward to the same step,
// with the seek's own pause reason (ttd.Landing), as PauseReason reports it.
func TestLiveRecordingSeekByteIdentity(t *testing.T) {
	tr, out := startRecorded(t)
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.ExitCode(); !ok {
		t.Fatal("inferior did not exit")
	}
	s := tr.Recording()
	if s == nil || s.Len() < 10 {
		t.Fatalf("recording too small: %v", s)
	}
	// Forward replay, in order, straight from the store.
	n := s.Len() - 1 // skip the terminal bookkeeping step
	forward := make([][]byte, n)
	for i := 0; i < n; i++ {
		st, err := s.StateAt(i)
		if err != nil {
			t.Fatal(err)
		}
		landed := *st
		landed.Reason, _ = ttd.Landing(s, "rec.py", i)
		forward[i], err = json.Marshal(&landed)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Seeks through the tracker surface, scattered order.
	for _, i := range []int{n - 1, 0, n / 2, 1, n / 3, n - 2, 2 * n / 3} {
		if err := tr.SeekTo(i); err != nil {
			t.Fatalf("SeekTo(%d): %v", i, err)
		}
		if tr.Pos() != i {
			t.Fatalf("Pos after SeekTo(%d) = %d", i, tr.Pos())
		}
		st, err := tr.State()
		if err != nil {
			t.Fatalf("State at %d: %v", i, err)
		}
		got, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(forward[i]) {
			t.Fatalf("seek to %d not byte-identical to forward replay", i)
		}
		if _, line := tr.Position(); line != s.LineAt(i) {
			t.Fatalf("Position at %d = line %d, want %d", i, line, s.LineAt(i))
		}
	}
	// Stdout of the full run was both recorded and delivered.
	if want := "3\n11\n"; out.String() != want {
		t.Fatalf("live stdout = %q, want %q", out.String(), want)
	}
	if got := s.StdoutAt(s.Len() - 1); got != out.String() {
		t.Fatalf("recorded stdout = %q, want %q", got, out.String())
	}
}

// TestLiveRecordingMatchesLivePauses steps the session forward, snapshotting
// the live state at every pause, then rewinds and checks the recording
// reconstructs each pause's frames and globals.
func TestLiveRecordingMatchesLivePauses(t *testing.T) {
	tr, _ := startRecorded(t)
	type pause struct {
		pos  int
		live *core.State
	}
	var pauses []pause
	for i := 0; i < 40; i++ {
		st, err := tr.State()
		if err != nil {
			t.Fatal(err)
		}
		pauses = append(pauses, pause{pos: tr.Pos(), live: st})
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
	}
	for _, p := range pauses {
		if err := tr.SeekTo(p.pos); err != nil {
			t.Fatalf("SeekTo(%d): %v", p.pos, err)
		}
		got, err := tr.State()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Frame.Equal(p.live.Frame) {
			t.Fatalf("frame at recorded step %d diverges from live pause", p.pos)
		}
		if len(got.Globals) != len(p.live.Globals) {
			t.Fatalf("globals at %d: %d vs %d", p.pos, len(got.Globals), len(p.live.Globals))
		}
		for i := range got.Globals {
			if got.Globals[i].Name != p.live.Globals[i].Name ||
				!got.Globals[i].Value.Equal(p.live.Globals[i].Value) {
				t.Fatalf("global %s at %d diverges", got.Globals[i].Name, p.pos)
			}
		}
	}
}

// TestLiveReverseNavigation drives StepBack/NextBack/ResumeBack/LastChange on
// a live session and checks forward execution snaps back to the present.
func TestLiveReverseNavigation(t *testing.T) {
	tr, _ := startRecorded(t)
	if err := tr.Watch("::a"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil { // first write of a
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil { // a = bump(a) → 11
		t.Fatal(err)
	}
	if tr.PauseReason().Type != core.PauseWatch {
		t.Fatalf("setup pause = %v", tr.PauseReason())
	}
	livePos := tr.Pos()
	liveReason := tr.PauseReason()

	// StepBack rewinds one recorded step and reports a step pause.
	if err := tr.StepBack(); err != nil {
		t.Fatal(err)
	}
	if tr.Pos() != livePos-1 {
		t.Fatalf("Pos after StepBack = %d, want %d", tr.Pos(), livePos-1)
	}
	if tr.PauseReason().Type != core.PauseStep {
		t.Fatalf("StepBack reason = %v", tr.PauseReason())
	}
	if _, err := tr.CurrentFrame(); err != nil {
		t.Fatalf("CurrentFrame while rewound: %v", err)
	}

	// LastChange answers from the write log relative to the cursor.
	ch, err := tr.LastChange("::a")
	if err != nil {
		t.Fatal(err)
	}
	if ch.Step > tr.Pos() {
		t.Fatalf("LastChange step %d after cursor %d", ch.Step, tr.Pos())
	}
	if _, err := tr.LastChange("::nosuch"); !errors.Is(err, core.ErrUnknownVariable) {
		t.Fatalf("LastChange unknown = %v", err)
	}

	// ResumeBack lands on the previous watch transition — the step just
	// before a's first definition, where the recording has no write of a
	// yet, so a LastChange there reports the variable unknown.
	if err := tr.ResumeBack(); err != nil {
		t.Fatal(err)
	}
	r := tr.PauseReason()
	if r.Type != core.PauseWatch || r.Variable != "::a" {
		t.Fatalf("ResumeBack reason = %v", r)
	}
	if _, err := tr.LastChange("::a"); !errors.Is(err, core.ErrUnknownVariable) {
		t.Fatalf("LastChange before first write = %v", err)
	}

	// Forward execution returns to the live present first.
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if tr.Pos() <= livePos {
		t.Fatalf("Pos after forward Step = %d, want > %d", tr.Pos(), livePos)
	}
	_ = liveReason

	// Run to completion; reverse navigation resurrects the finished run.
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("state after post-exit StepBack: %v, %v", st, err)
	}

	// NextBack respects depth: from a rewound position inside fib, it lands
	// at the same or shallower depth.
	if err := tr.SeekTo(tr.Len() / 2); err != nil {
		t.Fatal(err)
	}
	s := tr.Recording()
	d0 := s.DepthAt(tr.Pos())
	if err := tr.NextBack(); err != nil {
		t.Fatal(err)
	}
	if d := s.DepthAt(tr.Pos()); d > d0 {
		t.Fatalf("NextBack landed deeper: %d > %d", d, d0)
	}
}

// TestRecordingCapabilityGate checks the time-travel surface is advertised
// only when a recording exists.
func TestRecordingCapabilityGate(t *testing.T) {
	plain := New()
	if err := plain.LoadProgram("rec.py", core.WithSource("x = 1\n")); err != nil {
		t.Fatal(err)
	}
	if _, ok := core.As[core.TimeTraveler](plain); ok {
		t.Fatal("TimeTraveler advertised without recording")
	}
	if _, ok := core.As[core.ReverseWatcher](plain); ok {
		t.Fatal("ReverseWatcher advertised without recording")
	}
	if err := plain.StepBack(); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("StepBack without recording = %v", err)
	}

	rec := New()
	if err := rec.LoadProgram("rec.py", core.WithSource("x = 1\n"), core.WithRecording(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := core.As[core.TimeTraveler](rec); !ok {
		t.Fatal("TimeTraveler not advertised with recording")
	}
	if _, ok := core.As[core.ReverseWatcher](rec); !ok {
		t.Fatal("ReverseWatcher not advertised with recording")
	}
	if err := rec.StepBack(); !errors.Is(err, core.ErrNotStarted) {
		t.Fatalf("StepBack before start = %v", err)
	}
}
