package gdbtracker

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"easytracker/internal/core"
	"easytracker/internal/mi"
	"easytracker/internal/obs"
)

// TestStatsMIRoundTrips exercises the full observability surface of the
// MiniGDB tracker: every MI command crosses the wire tap, so after a short
// session the round-trip histogram, the command counter and the flight
// recorder must all have evidence of the traffic.
func TestStatsMIRoundTrips(t *testing.T) {
	tr := New()
	if err := tr.LoadProgram("prog.c", core.WithSource(fibC), core.WithObservability()); err != nil {
		t.Fatalf("load: %v", err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.State(); err != nil {
		t.Fatal(err)
	}

	snap := tr.Stats()
	if snap.Tracker != Kind || !snap.Enabled {
		t.Fatalf("snapshot header = %q/%v", snap.Tracker, snap.Enabled)
	}
	mir, ok := snap.Ops[core.OpMIRound]
	if !ok || mir.Count == 0 {
		t.Fatalf("no MI round-trip latencies recorded: %+v", snap.Ops)
	}
	if mir.SumNs <= 0 || mir.MinNs > mir.MaxNs {
		t.Fatalf("implausible latency stats: %+v", mir)
	}
	if snap.Counters[core.CtrMICommands] != mir.Count {
		t.Fatalf("command counter %d != round-trip count %d",
			snap.Counters[core.CtrMICommands], mir.Count)
	}
	if _, ok := snap.Ops[core.OpStep]; !ok {
		t.Fatalf("no Step latency recorded: %+v", snap.Ops)
	}
	var sawCmd, sawResp, sawPause bool
	for _, ev := range snap.Events {
		switch ev.Kind {
		case "mi>":
			sawCmd = true
		case "mi<":
			sawResp = true
		case "pause":
			sawPause = true
		}
	}
	if !sawCmd || !sawResp || !sawPause {
		t.Fatalf("flight recorder missing traffic (cmd=%v resp=%v pause=%v): %v",
			sawCmd, sawResp, sawPause, snap.Events)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
}

// TestFlightRecorderAlwaysOn: the black box runs even without
// WithObservability — an unobserved session that crashes must still produce
// a trail — while the metric instruments stay off.
func TestFlightRecorderAlwaysOn(t *testing.T) {
	tr, fc := faultTracker(t, fibC)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	fc().KillAfterCommands(0)
	te := sessionError(t, tr.Step())
	if len(te.Trail) == 0 {
		t.Fatal("session failure carries no flight-recorder dump")
	}
	dump := te.FlightDump()
	if !strings.Contains(dump, "mi>") || !strings.Contains(dump, "session") {
		t.Fatalf("trail lacks MI traffic or session events:\n%s", dump)
	}
	snap := tr.Stats()
	if snap.Enabled {
		t.Fatal("metrics reported enabled without WithObservability")
	}
	if len(snap.Counters) != 0 || len(snap.Ops) != 0 {
		t.Fatalf("disabled tracker collected metrics: %+v", snap)
	}
	if len(snap.Events) == 0 {
		t.Fatal("snapshot lost the always-on flight recorder events")
	}
}

// TestLostWatchpointRecordedInTrail reproduces the partial-loss scenario: a
// watchpoint on a local can only re-arm while its function has a live
// activation, so after a mid-fib crash the recovered session (paused back at
// the entry point) loses it. The loss must be reported in TrackerError.Lost
// AND recorded in the flight recorder with the re-arm failure's reason —
// previously the session replay logged nothing about what went missing.
func TestLostWatchpointRecordedInTrail(t *testing.T) {
	tr, fc := faultTracker(t, fibC)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.BreakBeforeFunc("fib"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if r := tr.PauseReason(); r.Type != core.PauseBreakpoint || r.Function != "fib" {
		t.Fatalf("not paused in fib: %v", r)
	}
	if err := tr.Watch("fib:n"); err != nil {
		t.Fatal(err)
	}

	fc().KillAfterCommands(0)
	err := tr.Step()
	te := sessionError(t, err)
	if !errors.Is(err, core.ErrSessionLost) {
		t.Fatalf("want ErrSessionLost, got %v", err)
	}
	if te.Recovery != core.RecoveryRestarted {
		t.Fatalf("recovery = %v, want restarted", te.Recovery)
	}
	wantLost := "watchpoint on fib:n"
	if len(te.Lost) != 1 || te.Lost[0] != wantLost {
		t.Fatalf("Lost = %v, want [%q]", te.Lost, wantLost)
	}
	// The flight recorder names the lost item and why re-arming failed.
	dump := te.FlightDump()
	if !strings.Contains(dump, "lost") || !strings.Contains(dump, wantLost) {
		t.Fatalf("trail does not record the lost watchpoint:\n%s", dump)
	}
	if !strings.Contains(dump, "journal replayed") {
		t.Fatalf("trail does not record the replay summary:\n%s", dump)
	}
	// The breakpoint survived; only the local watchpoint is gone.
	if err := tr.Resume(); err != nil {
		t.Fatalf("resume after recovery: %v", err)
	}
	if r := tr.PauseReason(); r.Type != core.PauseBreakpoint || r.Function != "fib" {
		t.Fatalf("pause after recovery = %v, want replayed breakpoint", r)
	}
}

// TestMIRoundTripSpansNestUnderOp pins the span half of the wire tap: every
// MI round trip is one "mi.round_trip" span whose Detail is the MI command
// and whose Parent is the span of the tracker op that sent it.
func TestMIRoundTripSpansNestUnderOp(t *testing.T) {
	tr := New()
	if err := tr.LoadProgram("prog.c", core.WithSource(fibC),
		core.WithObservability(core.WithSpanTracing(256))); err != nil {
		t.Fatalf("load: %v", err)
	}
	t.Cleanup(func() { _ = tr.Terminate() })
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.BreakBeforeFunc("fib"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.State(); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byID := map[uint64]obs.SpanRecord{}
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	// The op each command was sent under, as "op.name command".
	sent := map[string]bool{}
	for _, sp := range spans {
		if sp.Name != core.OpMIRound {
			continue
		}
		op, ok := byID[sp.Parent]
		if !ok || op.Name == core.OpMIRound {
			t.Fatalf("round trip %q has parent %d, not an op span in the ring", sp.Detail, sp.Parent)
		}
		if op.TraceID != sp.TraceID {
			t.Errorf("round trip %q is in trace %x, its op %s in %x", sp.Detail, sp.TraceID, op.Name, op.TraceID)
		}
		sent[op.Name+" "+sp.Detail] = true
	}
	for _, want := range []string{
		core.OpStart + " -exec-run",
		core.SpanArm + " -break-insert",
		core.OpResume + " -exec-continue",
		core.OpStep + " -exec-step",
		core.OpStateFetch + " -et-inspect",
	} {
		if !sent[want] {
			t.Errorf("no round trip %q; got %v", want, sent)
		}
	}
}

// TestMITapRecordsDeadlineExpiry pins the tap's view of a failed round
// trip: a command whose reply never comes leaves an "mi!" event naming the
// command and carrying the deadline error in the session error's flight
// dump, and the mi.errors counter counts it.
func TestMITapRecordsDeadlineExpiry(t *testing.T) {
	tr, fc := faultTracker(t, countC, core.WithObservability(),
		core.WithCommandTimeout(100*time.Millisecond))
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	fc().DropResponses(1000)
	err := tr.Step()
	te := sessionError(t, err)
	if !errors.Is(err, core.ErrCommandTimeout) {
		t.Fatalf("want ErrCommandTimeout, got %v", err)
	}
	var lost []string
	for _, line := range te.Trail {
		if strings.Contains(line, "mi!") {
			lost = append(lost, line)
		}
	}
	if len(lost) != 1 || !strings.Contains(lost[0], "-exec-step") ||
		!strings.Contains(lost[0], mi.ErrTimeout.Error()) {
		t.Fatalf("want one mi! event for -exec-step carrying %q, got %q in:\n%s",
			mi.ErrTimeout, lost, te.FlightDump())
	}
	if got := tr.Stats().Counters[core.CtrMIErrors]; got != 1 {
		t.Fatalf("%s = %d, want 1", core.CtrMIErrors, got)
	}
}
