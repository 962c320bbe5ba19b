package remote

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"easytracker/internal/core"
)

const countPy = `total = 0
k = 0
while k < 50:
    k = k + 1
total = 1
`

// startServer runs a server on a loopback listener and returns its address.
func startServer(t *testing.T, opts ...ServerOption) (*Server, string) {
	t.Helper()
	srv := NewServer(opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// connectPy opens a minipy session with countPy loaded.
func connectPy(t *testing.T, addr string) *Tracker {
	t.Helper()
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if err := tr.LoadProgram("count.py", core.WithSource(countPy)); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestServerConcurrentSessions is the scale acceptance test: 50 sessions run
// a watched program to completion at the same time, each seeing its own
// watch hits and exit, with the session gauge returning to zero.
func TestServerConcurrentSessions(t *testing.T) {
	srv, addr := startServer(t)
	const n = 50
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := Connect(addr, "minipy")
			if err != nil {
				errs <- err
				return
			}
			defer tr.Close()
			if err := tr.LoadProgram("count.py", core.WithSource(countPy)); err != nil {
				errs <- err
				return
			}
			if err := tr.Watch("::total"); err != nil {
				errs <- err
				return
			}
			if err := tr.Start(); err != nil {
				errs <- err
				return
			}
			hits := 0
			for {
				if _, done := tr.ExitCode(); done {
					break
				}
				if err := tr.Resume(); err != nil {
					errs <- err
					return
				}
				if tr.PauseReason().Type == core.PauseWatch {
					hits++
				}
			}
			if hits < 1 {
				errs <- errors.New("watchpoint never fired")
				return
			}
			if code, _ := tr.ExitCode(); code != 0 {
				errs <- errors.New("nonzero exit")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Sessions release their slots when their connections close.
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session count = %d after all clients closed", srv.SessionCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := srv.Stats()
	if snap.Counters[core.CtrRemoteSessions] != n {
		t.Errorf("sessions_opened = %d, want %d", snap.Counters[core.CtrRemoteSessions], n)
	}
	if g := snap.Gauges[core.GaugeRemoteSessions]; g.Max != n {
		t.Logf("sessions_active high watermark = %d (n=%d; admission may stagger)", g.Max, n)
	}
}

// TestServerGracefulDrain starts commands on live sessions, then drains:
// every in-flight response must arrive before the connections close.
func TestServerGracefulDrain(t *testing.T) {
	srv, addr := startServer(t)
	const n = 8
	trs := make([]*Tracker, n)
	for i := range trs {
		trs[i] = connectPy(t, addr)
		if err := trs[i].Start(); err != nil {
			t.Fatal(err)
		}
	}

	// Fire one Resume per session concurrently and drain while they run.
	var wg sync.WaitGroup
	resumed := make([]error, n)
	for i, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resumed[i] = tr.Resume()
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the requests reach the executors
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain fell back to hard close: %v", err)
	}
	wg.Wait()

	// Zero in-flight responses lost: every Resume must have completed
	// normally (the program runs to exit without pause conditions).
	for i, err := range resumed {
		if err != nil {
			t.Errorf("session %d: in-flight Resume lost to drain: %v", i, err)
			continue
		}
		if code, done := trs[i].ExitCode(); !done || code != 0 {
			t.Errorf("session %d: exit = %d/%v, want 0/true", i, code, done)
		}
	}

	// A drained server refuses new sessions.
	if _, err := Connect(addr, "minipy"); err == nil {
		t.Error("connect after drain succeeded")
	}
}

// TestServerSessionLimit exercises admission control.
func TestServerSessionLimit(t *testing.T) {
	srv, addr := startServer(t, WithMaxSessions(2))
	t1 := connectPy(t, addr)
	_ = connectPy(t, addr)
	if _, err := Connect(addr, "minipy"); err == nil || !strings.Contains(err.Error(), "session limit") {
		t.Fatalf("third connect: err = %v, want session-limit refusal", err)
	}
	if got := srv.Stats().Counters[core.CtrRemoteRefusals]; got != 1 {
		t.Errorf("sessions_refused = %d, want 1", got)
	}
	// Releasing one slot re-admits.
	t1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr, err := Connect(addr, "minipy")
		if err == nil {
			tr.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerUnknownKind: a hello for an unregistered backend fails cleanly
// and releases its admission slot.
func TestServerUnknownKind(t *testing.T) {
	srv, addr := startServer(t)
	if _, err := Connect(addr, "no-such-backend"); err == nil ||
		!strings.Contains(err.Error(), "unknown tracker kind") {
		t.Fatalf("err = %v, want unknown-kind", err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("session count = %d after failed hello, want 0", n)
	}
}

// TestServerIdleEviction: an idle session is evicted; a busy one is not.
func TestServerIdleEviction(t *testing.T) {
	srv, addr := startServer(t, WithIdleTimeout(100*time.Millisecond))
	tr := connectPy(t, addr)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Stats().Counters[core.CtrRemoteEvictions]; got != 1 {
		t.Errorf("sessions_evicted = %d, want 1", got)
	}

	// The evicted client reconnects on its next call (the session-loss
	// model below covers the error shape).
	err := tr.Step()
	var te *core.TrackerError
	if !errors.As(err, &te) || te.Recovery != core.RecoveryRestarted {
		t.Fatalf("post-eviction Step: %v, want RecoveryRestarted", err)
	}
}

// TestServerBusySessionNotEvicted: the idle deadline must not fire during a
// long-running command.
func TestServerBusySessionNotEvicted(t *testing.T) {
	_, addr := startServer(t, WithIdleTimeout(50*time.Millisecond))
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// A program that runs well past the idle timeout under an execution
	// deadline, so Resume is one long in-flight command.
	if err := tr.LoadProgram("spin.py", core.WithSource("n = 0\nwhile True:\n    n = n + 1\n"),
		core.WithExecutionTimeout(300*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatalf("busy session was disturbed: %v", err)
	}
	if r := tr.PauseReason(); r.Type != core.PauseInterrupted || r.Detail != "deadline" {
		t.Fatalf("pause = %v, want INTERRUPTED (deadline)", r)
	}
}

// TestServerTenantBudgets: the server's per-session caps bound a client that
// asked for no budgets at all.
func TestServerTenantBudgets(t *testing.T) {
	_, addr := startServer(t, WithSessionBudgets(core.Budgets{MaxSteps: 500}))
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.LoadProgram("spin.py", core.WithSource("n = 0\nwhile True:\n    n = n + 1\n")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	if r := tr.PauseReason(); r.Type != core.PauseInterrupted || r.Detail != "step-budget" {
		t.Fatalf("pause = %v, want INTERRUPTED (step-budget)", r)
	}
}

// TestLoadOptionsTighterBound folds a client's load request and the
// server's tenant caps into the backend's load options: the execution
// timeout and each resource budget is the smaller non-zero bound, and a
// zero on either side leaves the other side's bound.
func TestLoadOptionsTighterBound(t *testing.T) {
	fields := []struct {
		name   string
		client func(*LoadSpec, int64)
		server func(*tenantCaps, int64)
		got    func(*core.LoadConfig) int64
	}{
		{"ExecTimeout",
			func(s *LoadSpec, v int64) { s.ExecNs = v },
			func(c *tenantCaps, v int64) { c.ExecTimeout = time.Duration(v) },
			func(c *core.LoadConfig) int64 { return int64(c.ExecTimeout) }},
		{"MaxSteps",
			func(s *LoadSpec, v int64) { s.Budgets.MaxSteps = v },
			func(c *tenantCaps, v int64) { c.Budgets.MaxSteps = v },
			func(c *core.LoadConfig) int64 { return c.Budgets.MaxSteps }},
		{"MaxDepth",
			func(s *LoadSpec, v int64) { s.Budgets.MaxDepth = int(v) },
			func(c *tenantCaps, v int64) { c.Budgets.MaxDepth = int(v) },
			func(c *core.LoadConfig) int64 { return int64(c.Budgets.MaxDepth) }},
		{"MaxHeapObjects",
			func(s *LoadSpec, v int64) { s.Budgets.MaxHeapObjects = v },
			func(c *tenantCaps, v int64) { c.Budgets.MaxHeapObjects = v },
			func(c *core.LoadConfig) int64 { return c.Budgets.MaxHeapObjects }},
		{"MaxInstructions",
			func(s *LoadSpec, v int64) { s.Budgets.MaxInstructions = uint64(v) },
			func(c *tenantCaps, v int64) { c.Budgets.MaxInstructions = uint64(v) },
			func(c *core.LoadConfig) int64 { return int64(c.Budgets.MaxInstructions) }},
	}
	cases := []struct {
		name                 string
		client, server, want int64
	}{
		{"client tighter", 5, 9, 5},
		{"server tighter", 9, 5, 5},
		{"client zero", 0, 7, 7},
		{"server zero", 7, 0, 7},
		{"both zero", 0, 0, 0},
	}
	for _, f := range fields {
		for _, c := range cases {
			var spec LoadSpec
			var caps tenantCaps
			f.client(&spec, c.client)
			f.server(&caps, c.server)
			var cfg core.LoadConfig
			for _, o := range spec.loadOptions(caps, nil, nil, "") {
				o(&cfg)
			}
			if got := f.got(&cfg); got != c.want {
				t.Errorf("%s, %s: got %d, want %d", f.name, c.name, got, c.want)
			}
		}
	}
}

// TestServerStdoutDelta: inferior output crosses the wire and lands in the
// client's writer.
func TestServerStdoutDelta(t *testing.T) {
	_, addr := startServer(t)
	tr, err := Connect(addr, "minipy")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var out strings.Builder
	if err := tr.LoadProgram("hello.py",
		core.WithSource("print(\"hello from the server\")\n"),
		core.WithStdout(&out)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
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
	if got := out.String(); !strings.Contains(got, "hello from the server") {
		t.Errorf("client stdout = %q, want the inferior's output", got)
	}
}
