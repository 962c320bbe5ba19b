package remote

import (
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"easytracker/internal/core"
)

const fibC = `int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int r = fib(4);
    printf("%d\n", r);
    return 0;
}`

// TestClientReconnectReplay: an evicted session reconnects once, replaying
// its journal — load, start, arming ops — so the armed surface survives
// even though execution progress is lost, mirroring the MiniGDB session
// layer's semantics.
func TestClientReconnectReplay(t *testing.T) {
	_, addr := startServer(t, WithIdleTimeout(80*time.Millisecond))
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.LoadProgram("count.py", core.WithSource(countPy)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Watch("::total"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}

	time.Sleep(300 * time.Millisecond) // let the server evict the session

	err = tr.Resume()
	var te *core.TrackerError
	if !errors.As(err, &te) {
		t.Fatalf("post-eviction Resume: %v, want *TrackerError", err)
	}
	if te.Recovery != core.RecoveryRestarted {
		t.Fatalf("recovery = %v, want restarted", te.Recovery)
	}
	if !errors.Is(err, core.ErrSessionLost) {
		t.Error("recovery error lost its ErrSessionLost identity")
	}
	if len(te.Lost) != 0 {
		t.Errorf("lost items = %v, want none (the watch re-arms)", te.Lost)
	}
	if r := tr.PauseReason(); r.Type != core.PauseEntry {
		t.Errorf("post-recovery pause = %v, want ENTRY", r.Type)
	}

	// The replayed journal is live: the watchpoint still fires.
	if err := tr.Resume(); err != nil {
		t.Fatalf("Resume after recovery: %v", err)
	}
	if r := tr.PauseReason(); r.Type != core.PauseWatch || r.Variable != "::total" {
		t.Fatalf("pause = %v, want WATCH ::total", r)
	}
}

// TestClientLostWatchpointWording is the loopback twin of the MiniGDB
// session layer's TestLostWatchpointRecordedInTrail: a watch on a local
// re-arms only while its function has a live activation, so a reconnect
// that restarts the inferior at its entry loses it, and Lost names it in
// core.Probe's wording, as a local session does.
func TestClientLostWatchpointWording(t *testing.T) {
	_, addr := startServer(t, WithIdleTimeout(80*time.Millisecond))
	tr, err := Connect(addr, "minigdb")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.LoadProgram("fib.c", core.WithSource(fibC)); err != nil {
		t.Fatal(err)
	}
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

	time.Sleep(300 * time.Millisecond) // let the server evict the session

	err = tr.Step()
	var te *core.TrackerError
	if !errors.As(err, &te) || te.Recovery != core.RecoveryRestarted {
		t.Fatalf("post-eviction Step: %v, want RecoveryRestarted", err)
	}
	if want := "watchpoint on fib:n"; len(te.Lost) != 1 || te.Lost[0] != want {
		t.Fatalf("Lost = %q, want [%q]", te.Lost, want)
	}
	// The breakpoint survived; only the local watchpoint is gone.
	if err := tr.Resume(); err != nil {
		t.Fatalf("resume after recovery: %v", err)
	}
	if r := tr.PauseReason(); r.Type != core.PauseBreakpoint || r.Function != "fib" {
		t.Fatalf("pause after recovery = %v, want replayed breakpoint", r)
	}
}

// TestProbeRequestWireBytes pins the arming request of every probe kind, with
// and without every option, to the bytes the client sent before it
// journaled core.Probe values, and checks that the server reads each
// request back as the probe it carries.
func TestProbeRequestWireBytes(t *testing.T) {
	all := []core.BreakOption{core.WithMaxDepth(3), core.WithCondition("k > 1"),
		core.WithIgnoreHits(2), core.WithOneShot()}
	cases := []struct {
		p    core.Probe
		want string
	}{
		{core.LineProbe("prog.py", 4, all...), `{"id":0,"op":"break-line","file":"prog.py","line":4,"max_depth":3,"cond":"k \u003e 1","ignore":2,"one_shot":true}`},
		{core.LineProbe("", 7), `{"id":0,"op":"break-line","line":7}`},
		{core.FuncProbe("fib", all...), `{"id":0,"op":"break-func","func":"fib","max_depth":3,"cond":"k \u003e 1","ignore":2,"one_shot":true}`},
		{core.FuncProbe("fib"), `{"id":0,"op":"break-func","func":"fib"}`},
		{core.TrackProbe("square", all...), `{"id":0,"op":"track","func":"square","max_depth":3,"cond":"k \u003e 1","ignore":2,"one_shot":true}`},
		{core.TrackProbe("square"), `{"id":0,"op":"track","func":"square"}`},
		{core.WatchProbe("fib:n", all...), `{"id":0,"op":"watch","var":"fib:n","max_depth":3,"cond":"k \u003e 1","ignore":2,"one_shot":true}`},
		{core.WatchProbe("::total"), `{"id":0,"op":"watch","var":"::total"}`},
	}
	for _, c := range cases {
		req, err := probeRequest(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.p, err)
		}
		got, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s:\ngot  %s\nwant %s", c.p, got, c.want)
		}
		if back := req.probe(); back != c.p {
			t.Errorf("%s: server reads back %+v", c.p, back)
		}
	}
	if _, err := probeRequest(core.Probe{Kind: core.ProbeTrack + 1}); !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("unknown probe kind: %v, want ErrUnsupported", err)
	}
}

// TestClientRecoveryOneShot: when the server is truly gone the reconnect
// fails, the tracker retires (RecoveryFailed, ExitCode -1) and every later
// call reports the loss without redialing.
func TestClientRecoveryOneShot(t *testing.T) {
	srv, addr := startServer(t)
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.LoadProgram("count.py", core.WithSource(countPy)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}

	srv.Close() // server dies; no one listens anymore

	err = tr.Resume()
	var te *core.TrackerError
	if !errors.As(err, &te) || te.Recovery != core.RecoveryFailed {
		t.Fatalf("Resume after server death: %v, want RecoveryFailed", err)
	}
	if !errors.Is(err, core.ErrSessionLost) {
		t.Error("retire error lost its ErrSessionLost identity")
	}
	code, done := tr.ExitCode()
	if !done || code != -1 {
		t.Errorf("retired ExitCode = %d/%v, want -1/true", code, done)
	}
	if r := tr.PauseReason(); r.Type != core.PauseExited {
		t.Errorf("retired pause = %v, want EXITED", r.Type)
	}
	// Later calls stay failed without further dial attempts.
	if err := tr.Step(); !errors.Is(err, core.ErrSessionLost) {
		t.Errorf("Step on retired tracker: %v, want ErrSessionLost", err)
	}
	// Terminate on a retired tracker is clean.
	if err := tr.Terminate(); err != nil {
		t.Errorf("Terminate on retired tracker: %v", err)
	}
}

// TestClientCapabilityGate: the proxy's concrete type has every extension
// method, but As must present exactly the backend's capability surface — a
// MiniPy session has no registers, a trace session no interrupter.
func TestClientCapabilityGate(t *testing.T) {
	_, addr := startServer(t)

	py, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer py.Close()
	if _, ok := core.As[core.RegisterInspector](py); ok {
		t.Error("minipy session claims RegisterInspector")
	}
	if _, ok := core.As[core.MemoryInspector](py); ok {
		t.Error("minipy session claims MemoryInspector")
	}
	if _, ok := core.As[core.StateProvider](py); !ok {
		t.Error("minipy session denies StateProvider")
	}
	if _, ok := core.As[core.StatsProvider](py); !ok {
		t.Error("minipy session denies StatsProvider")
	}
	if _, ok := core.As[core.Interrupter](py); !ok {
		t.Error("minipy session denies Interrupter")
	}

	// The capability set matches a local tracker of the same kind.
	local, err := core.NewTracker("minipy")
	if err != nil {
		t.Fatal(err)
	}
	if lc, rc := core.CapabilitiesOf(local), core.CapabilitiesOf(py); lc != rc {
		t.Errorf("capability sets differ: local %+v, remote %+v", lc, rc)
	}

	tc, err := Connect(addr, "trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if _, ok := core.As[core.Interrupter](tc); ok {
		t.Error("trace session claims Interrupter")
	}
}

// TestClientInterruptMidResume: Interrupt crosses the wire while Resume's
// response is outstanding, converting a runaway inferior into a normal
// INTERRUPTED pause — the tool-facing behavior of Ctrl-C over -remote.
func TestClientInterruptMidResume(t *testing.T) {
	_, addr := startServer(t)
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.LoadProgram("spin.py",
		core.WithSource("n = 0\nwhile True:\n    n = n + 1\n")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		tr.Interrupt()
	}()
	if err := tr.Resume(); err != nil {
		t.Fatalf("interrupted Resume: %v", err)
	}
	r := tr.PauseReason()
	if r.Type != core.PauseInterrupted || r.Detail != "interrupt" {
		t.Fatalf("pause = %v, want INTERRUPTED (interrupt)", r)
	}
}

// TestClientDialFailure: connecting to a dead address fails fast with a
// useful error, not a hang.
func TestClientDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Connect(addr, "minipy"); err == nil {
		t.Fatal("connect to closed port succeeded")
	}
}

// stateInt reads an integer variable from a remote session's snapshot,
// checking the innermost frame then globals and unwrapping the ref cell.
func stateInt(t *testing.T, tr *Tracker, name string) int64 {
	t.Helper()
	st, err := tr.State()
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	var val *core.Value
	if st.Frame != nil {
		if v := st.Frame.Lookup(name); v != nil {
			val = v.Value
		}
	}
	if val == nil {
		for _, g := range st.Globals {
			if g.Name == name {
				val = g.Value
			}
		}
	}
	if val == nil {
		t.Fatalf("no variable %q in snapshot", name)
	}
	if d := val.Deref(); d != nil {
		val = d
	}
	n, ok := val.Int()
	if !ok {
		t.Fatalf("variable %q is not an int: %s", name, val)
	}
	return n
}

// TestClientSubscribeFilter: a subscription makes Resume skip non-matching
// pauses server-side; clearing it restores every pause.
func TestClientSubscribeFilter(t *testing.T) {
	_, addr := startServer(t)
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.LoadProgram("count.py", core.WithSource(countPy)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.BreakBeforeLine("", 4); err != nil {
		t.Fatal(err)
	}
	if err := tr.Subscribe("k == 10"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := stateInt(t, tr, "k"); got != 10 {
		t.Fatalf("first subscribed pause has k = %d, want 10", got)
	}
	// Clearing the subscription surfaces the very next hit again.
	if err := tr.Subscribe(""); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := stateInt(t, tr, "k"); got != 11 {
		t.Fatalf("post-clear pause has k = %d, want 11", got)
	}
	// Bad expressions are rejected client-side with the typed query error.
	err = tr.Subscribe("k ==")
	if !errors.Is(err, core.ErrBadQuery) {
		t.Errorf("Subscribe(bad) = %v, want ErrBadQuery", err)
	}
}

// TestClientSubscribeReplay: the subscription is journaled, so an evicted
// session comes back with both its conditional surface and its filter.
func TestClientSubscribeReplay(t *testing.T) {
	_, addr := startServer(t, WithIdleTimeout(80*time.Millisecond))
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.LoadProgram("count.py", core.WithSource(countPy)); err != nil {
		t.Fatal(err)
	}
	if err := tr.BreakBeforeLine("", 4); err != nil {
		t.Fatal(err)
	}
	if err := tr.Subscribe("k == 10"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := stateInt(t, tr, "k"); got != 10 {
		t.Fatalf("pre-eviction pause has k = %d, want 10", got)
	}

	time.Sleep(300 * time.Millisecond) // let the server evict the session

	err = tr.Resume()
	var te *core.TrackerError
	if !errors.As(err, &te) || te.Recovery != core.RecoveryRestarted {
		t.Fatalf("post-eviction Resume: %v, want RecoveryRestarted", err)
	}
	if len(te.Lost) != 0 {
		t.Errorf("lost items = %v, want none (probe and subscription re-arm)", te.Lost)
	}
	// The fresh inferior restarts from entry; the replayed subscription
	// still filters, so the first surfaced pause is k == 10 again.
	if err := tr.Resume(); err != nil {
		t.Fatalf("Resume after recovery: %v", err)
	}
	if r := tr.PauseReason(); r.Type != core.PauseBreakpoint {
		t.Fatalf("post-recovery pause = %v, want BREAKPOINT", r)
	}
	if got := stateInt(t, tr, "k"); got != 10 {
		t.Errorf("post-recovery pause has k = %d, want 10 (subscription replayed)", got)
	}
}

// TestClientSubscribeInterrupt: supervision outranks the filter — an
// interrupt surfaces even while the server is swallowing non-matching
// pauses.
func TestClientSubscribeInterrupt(t *testing.T) {
	_, addr := startServer(t)
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.LoadProgram("spin.py",
		core.WithSource("n = 0\nwhile True:\n    n = n + 1\n")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.BreakBeforeLine("", 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Subscribe("n < 0"); err != nil { // never matches
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		tr.Interrupt()
	}()
	if err := tr.Resume(); err != nil {
		t.Fatalf("interrupted Resume: %v", err)
	}
	if r := tr.PauseReason(); r.Type != core.PauseInterrupted {
		t.Fatalf("pause = %v, want INTERRUPTED", r)
	}
}

// TestBareStepAllocs bounds the allocations of one bare Step round trip on
// a loopback session, client and server together: the call's response
// channel and Request, the Response and Status on each side, the server's
// spans and the pause reason's copy. Observability turned off on the client
// builds no span name, the client's reader drops the response's trace
// context without decoding it, and each side reads length prefixes into
// its connection.
func TestBareStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled frame buffers")
	}
	_, addr := startServer(t)
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	src := "k = 0\nwhile k >= 0:\n    k = k + 1\n"
	if err := tr.LoadProgram("loop.py", core.WithSource(src)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 14 {
		t.Errorf("a bare Step round trip makes %v allocations, want at most 14", allocs)
	}
	t.Logf("%v allocations per bare Step round trip", allocs)
}
