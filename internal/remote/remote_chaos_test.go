package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"easytracker/internal/core"
	"easytracker/internal/vnet"
)

// The chaos harness drives fleets of remote sessions over the virtual
// network while a fault scheduler tears at the links: added latency and
// jitter, bandwidth caps, corruption bursts, resets, partitions longer than
// the heartbeat window, torn frames. The acceptance bar is conformance, not
// mere survival — a session that recovers must replay to a transcript
// byte-identical to a fault-free run, with zero lost or duplicated armed
// probes.

// chaosPy pauses deterministically: one watch hit per change of total.
const chaosPy = `total = 0
k = 0
while k < 6:
    k = k + 1
    total = total + k
`

// chaosPolicy is the generous redial policy the harness sessions run under:
// many fast attempts, a budget far beyond any injected outage, and enough
// recoveries to ride out every fault event.
func chaosPolicy() core.RedialPolicy {
	return core.RedialPolicy{
		MaxAttempts:   50,
		BaseDelay:     2 * time.Millisecond,
		MaxDelay:      25 * time.Millisecond,
		Multiplier:    2,
		Jitter:        0.3,
		Budget:        20 * time.Second,
		MaxRecoveries: 64,
		DialTimeout:   500 * time.Millisecond,
	}
}

// startVnetServer serves on a virtual-network listener bound to "srv".
func startVnetServer(t *testing.T, n *vnet.Network, opts ...ServerOption) *Server {
	t.Helper()
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(opts...)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// pauseStamp renders the observable pause condition: reason and position.
func pauseStamp(tr *Tracker) string {
	file, line := tr.Position()
	return fmt.Sprintf("%s@%s:%d", tr.PauseReason().String(), file, line)
}

// runChaosSession drives one session to completion, retrying operations
// across session restarts. A restart wipes inferior progress, so the
// transcript restarts with it; the final transcript therefore always
// describes one uninterrupted run and must equal the fault-free reference.
// A restart that loses armed probes is a hard failure.
func runChaosSession(tr *Tracker, pol core.RedialPolicy) (tx []string, err error) {
	step := func(name string, f func() error) error {
		for {
			err := f()
			if err == nil {
				return nil
			}
			var te *core.TrackerError
			if errors.As(err, &te) && te.Recovery == core.RecoveryRestarted {
				if len(te.Lost) > 0 {
					return fmt.Errorf("%s: lost arms after replay: %v", name, te.Lost)
				}
				tx = tx[:0]
				continue
			}
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if err := step("load", func() error {
		return tr.LoadProgram("chaos.py", core.WithSource(chaosPy),
			core.WithRedialPolicy(pol), core.WithObservability())
	}); err != nil {
		return nil, err
	}
	if err := step("watch", func() error { return tr.Watch("::total") }); err != nil {
		return nil, err
	}
	if err := step("start", func() error { return tr.Start() }); err != nil {
		return nil, err
	}
	for rounds := 0; ; rounds++ {
		if rounds > 10000 {
			return nil, errors.New("resume loop never reached the exit")
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		if err := tr.Resume(); err != nil {
			var te *core.TrackerError
			if errors.As(err, &te) && te.Recovery == core.RecoveryRestarted {
				if len(te.Lost) > 0 {
					return nil, fmt.Errorf("resume: lost arms after replay: %v", te.Lost)
				}
				tx = tx[:0]
				continue
			}
			return nil, fmt.Errorf("resume: %w", err)
		}
		tx = append(tx, pauseStamp(tr))
	}
	code, _ := tr.ExitCode()
	return append(tx, fmt.Sprintf("exit=%d", code)), nil
}

// splitmix advances a splitmix64 state — each scheduler goroutine gets its
// own deterministic stream.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosSchedule fires a bounded sequence of fault events at one client's
// links, then clears everything so the session can finish clean. Faults are
// chosen so conformance stays provable: partitions outlast the heartbeat
// window (the pending call dies and replays rather than hanging on a
// dropped request), and corruption runs hot enough that a corrupted stream
// cannot survive undetected — any frame it mangles kills the connection,
// and the recovery wipes the transcript.
func chaosSchedule(n *vnet.Network, name string, seed uint64, events int) {
	rng := seed
	sleepMs := func(lo, span uint64) {
		time.Sleep(time.Duration(lo+splitmix(&rng)%span) * time.Millisecond)
	}
	for ev := 0; ev < events; ev++ {
		sleepMs(3, 15)
		switch splitmix(&rng) % 5 {
		case 0: // latency + jitter spell, left in place until the next event
			n.SetFaults(name, "srv", vnet.Faults{
				Latency: time.Duration(splitmix(&rng)%3) * time.Millisecond,
				Jitter:  2 * time.Millisecond,
			})
			n.SetFaults("srv", name, vnet.Faults{
				Latency: time.Duration(splitmix(&rng)%3) * time.Millisecond,
			})
		case 1: // corruption burst, then clear
			n.SetFaults(name, "srv", vnet.Faults{CorruptProb: 0.25})
			sleepMs(5, 20)
			n.SetFaults(name, "srv", vnet.Faults{})
		case 2: // reset: both ends notice immediately
			n.Sever(name, "srv")
		case 3: // partition past the heartbeat window, healed inside the budget
			n.Partition(name, "srv")
			sleepMs(70, 80)
			n.Heal(name, "srv")
		case 4: // bandwidth squeeze, left in place until the next event
			n.SetFaults("srv", name, vnet.Faults{Bandwidth: 200_000})
		}
	}
	n.SetFaults(name, "srv", vnet.Faults{})
	n.SetFaults("srv", name, vnet.Faults{})
	n.Heal(name, "srv")
}

// TestChaosFleetConformance is the headline acceptance test: a fleet of
// concurrent sessions runs the watched program to completion while every
// session's links take faults, and every transcript must come out identical
// to a fault-free reference run.
func TestChaosFleetConformance(t *testing.T) {
	sessions, events := 200, 5
	if testing.Short() {
		sessions, events = 24, 3
	}
	n := vnet.New(0xEA57)
	startVnetServer(t, n,
		WithMaxSessions(2*sessions+8), // headroom for evicting-session overlap during redials
		WithHeartbeat(20*time.Millisecond, 3),
		WithRetryAfterHint(15*time.Millisecond))
	pol := chaosPolicy()

	// Fault-free reference over the same network (its link is never touched).
	refTr, err := Connect("srv", "minipy", WithDialer(n.Dialer("ref-cli")))
	if err != nil {
		t.Fatalf("reference connect: %v", err)
	}
	ref, err := runChaosSession(refTr, pol)
	refTr.Close()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref) < 3 {
		t.Fatalf("reference transcript too thin to prove anything: %v", ref)
	}

	var wg, sched sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		name := fmt.Sprintf("cli-%03d", i)
		seed := uint64(i)*0x9E3779B9 + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := Connect("srv", "minipy", WithDialer(n.Dialer(name)))
			if err != nil {
				errs <- fmt.Errorf("%s: connect: %w", name, err)
				return
			}
			defer tr.Close()
			// Faults start only after the initial dial: the redial policy
			// covers established sessions, not first contact.
			sched.Add(1)
			go func() {
				defer sched.Done()
				chaosSchedule(n, name, seed, events)
			}()
			tx, err := runChaosSession(tr, pol)
			if err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
				return
			}
			if !slices.Equal(tx, ref) {
				errs <- fmt.Errorf("%s: transcript drifted from the fault-free run:\n got: %v\nwant: %v", name, tx, ref)
			}
		}()
	}
	wg.Wait()
	sched.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		if failures < 5 {
			t.Error(err)
		}
		failures++
	}
	if failures > 5 {
		t.Errorf("... and %d more failed sessions", failures-5)
	}
}

// TestChaosDrainUnderFire drains the server while sessions are mid-flight
// and links are being reset. The drain must complete inside its context and
// every client must unblock — finishing, or failing over to a session-lost
// (or draining-refusal) error — with nobody hung.
func TestChaosDrainUnderFire(t *testing.T) {
	n := vnet.New(0xD1)
	srv := startVnetServer(t, n,
		WithMaxSessions(64),
		WithHeartbeat(20*time.Millisecond, 3),
		WithRetryAfterHint(10*time.Millisecond))

	pol := chaosPolicy()
	pol.Budget = 400 * time.Millisecond // give up quickly once the server is gone
	pol.MaxRecoveries = 8

	const fleet = 16
	var wg, dialed sync.WaitGroup
	outcome := make(chan error, fleet)
	for i := 0; i < fleet; i++ {
		name := fmt.Sprintf("drain-%02d", i)
		wg.Add(1)
		dialed.Add(1)
		go func() {
			defer wg.Done()
			tr, err := Connect("srv", "minipy", WithDialer(n.Dialer(name)))
			dialed.Done()
			if err != nil {
				outcome <- err
				return
			}
			defer tr.Close()
			_, err = runChaosSession(tr, pol)
			outcome <- err
		}()
	}
	// The fleet is airborne once every first contact is made: a drain that
	// closed the listener before a Connect would refuse first contact,
	// which the redial policy does not cover.
	dialed.Wait()
	for i := 0; i < fleet; i += 2 {
		n.Sever(fmt.Sprintf("drain-%02d", i), "srv")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain under fire fell back to hard close: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("clients still blocked after the drain completed")
	}
	close(outcome)
	for err := range outcome {
		if err == nil {
			continue // finished before the drain caught it
		}
		if !errors.Is(err, core.ErrSessionLost) && !errors.Is(err, core.ErrServerDraining) {
			t.Errorf("client failed with an unexpected error class: %v", err)
		}
	}
}

// connectChaos opens one session over the virtual network with chaosPy
// loaded and its watchpoint armed — the setup the targeted fault tests
// share. Faults are injected afterwards, at controlled moments.
func connectChaos(t *testing.T, n *vnet.Network, name string, pol core.RedialPolicy) *Tracker {
	t.Helper()
	tr, err := Connect("srv", "minipy", WithDialer(n.Dialer(name)))
	if err != nil {
		t.Fatalf("%s: connect: %v", name, err)
	}
	t.Cleanup(func() { tr.Close() })
	if err := tr.LoadProgram("chaos.py", core.WithSource(chaosPy),
		core.WithRedialPolicy(pol), core.WithObservability()); err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	if err := tr.Watch("::total"); err != nil {
		t.Fatalf("%s: watch: %v", name, err)
	}
	return tr
}

// finishClean drives a (possibly just-replayed) session to a zero exit.
func finishClean(t *testing.T, tr *Tracker) {
	t.Helper()
	for {
		if code, done := tr.ExitCode(); done {
			if code != 0 {
				t.Fatalf("exit code %d after recovery, want 0", code)
			}
			return
		}
		if err := tr.Resume(); err != nil {
			t.Fatalf("resume after recovery: %v", err)
		}
	}
}

// TestChaosTornFrameStateReplay cuts the connection in the middle of a
// State transfer — once inside the 4-byte length prefix, once inside the
// payload — and proves the failure surfaces as a typed *DecodeError, the
// session replays without losing or duplicating the armed watch, and the
// re-fetched State is byte-identical to a fault-free session at the same
// pause point.
func TestChaosTornFrameStateReplay(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cut   int
		check func(t *testing.T, de *DecodeError)
	}{
		{"mid-prefix", 2, func(t *testing.T, de *DecodeError) {
			if de.Len != -1 || de.Offset != 2 {
				t.Fatalf("mid-prefix DecodeError lies about the cut: %+v", de)
			}
		}},
		{"mid-payload", 4 + 11, func(t *testing.T, de *DecodeError) {
			if de.Offset != 4+11 || de.Len <= 11 {
				t.Fatalf("mid-payload DecodeError lies about the cut: %+v", de)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := vnet.New(5)
			startVnetServer(t, n)

			// Fault-free reference: State at the second watch pause.
			ref := connectChaos(t, n, "torn-ref", chaosPolicy())
			var refTx []string
			for _, f := range []func() error{ref.Start, ref.Resume, ref.Resume} {
				if err := f(); err != nil {
					t.Fatalf("reference drive: %v", err)
				}
				refTx = append(refTx, pauseStamp(ref))
			}
			refState, err := ref.State()
			if err != nil {
				t.Fatalf("reference state: %v", err)
			}
			refJSON, err := json.Marshal(refState)
			if err != nil {
				t.Fatal(err)
			}

			tr := connectChaos(t, n, "torn-cli", chaosPolicy())
			var tx []string
			for _, f := range []func() error{tr.Start, tr.Resume, tr.Resume} {
				if err := f(); err != nil {
					t.Fatalf("drive to pause: %v", err)
				}
				tx = append(tx, pauseStamp(tr))
			}
			if !slices.Equal(tx, refTx) {
				t.Fatalf("pre-tear transcript drifted: %v vs %v", tx, refTx)
			}

			// Tear the State response at the chosen byte.
			n.SeverAfter("srv", "torn-cli", tc.cut)
			_, err = tr.State()
			var te *core.TrackerError
			if !errors.As(err, &te) || te.Recovery != core.RecoveryRestarted {
				t.Fatalf("torn State: err = %v, want a RecoveryRestarted TrackerError", err)
			}
			if len(te.Lost) != 0 {
				t.Fatalf("replay lost arms: %v", te.Lost)
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("torn State error %v carries no *DecodeError", err)
			}
			tc.check(t, de)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("torn State error lost its io.ErrUnexpectedEOF identity: %v", err)
			}

			// The replayed session restarts at the entry point with the
			// watch re-armed exactly once: re-driving produces the same two
			// pauses, and State at the same point is byte-identical.
			tx = tx[:0]
			for _, f := range []func() error{tr.Resume, tr.Resume} {
				if err := f(); err != nil {
					t.Fatalf("re-drive after replay: %v", err)
				}
				tx = append(tx, pauseStamp(tr))
			}
			if !slices.Equal(tx, refTx[1:]) {
				t.Fatalf("replayed pauses drifted (duplicated or lost arms?):\n got: %v\nwant: %v", tx, refTx[1:])
			}
			st, err := tr.State()
			if err != nil {
				t.Fatalf("state after replay: %v", err)
			}
			gotJSON, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(refJSON) {
				t.Fatalf("replayed State differs from the fault-free run:\n got: %s\nwant: %s", gotJSON, refJSON)
			}
			finishClean(t, tr)
		})
	}
}

// TestRedialRecoversFromPartition partitions an established session for
// longer than the heartbeat window — with a couple of injected dial
// refusals waiting behind the heal — and expects the redial loop to ride
// through: a RecoveryRestarted error with nothing lost, then a clean run.
func TestRedialRecoversFromPartition(t *testing.T) {
	n := vnet.New(3)
	srv := startVnetServer(t, n, WithHeartbeat(15*time.Millisecond, 3))
	pol := chaosPolicy()
	tr := connectChaos(t, n, "part-cli", pol)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}

	n.Partition("part-cli", "srv")
	n.RefuseNext("srv", 2) // the first dials after the heal bounce, too
	go func() {
		time.Sleep(120 * time.Millisecond)
		n.Heal("part-cli", "srv")
	}()

	err := tr.Resume()
	var te *core.TrackerError
	if !errors.As(err, &te) || te.Recovery != core.RecoveryRestarted {
		t.Fatalf("resume across partition: err = %v, want RecoveryRestarted", err)
	}
	if len(te.Lost) != 0 {
		t.Fatalf("recovery lost arms: %v", te.Lost)
	}
	finishClean(t, tr)

	stats := tr.ClientStats()
	if got := stats.Counters[core.CtrRemoteRedials]; got < 1 {
		t.Errorf("remote.redials = %d, want >= 1", got)
	}
	if got := stats.Counters[core.CtrRemoteRedialGiveups]; got != 0 {
		t.Errorf("remote.redial_giveups = %d, want 0", got)
	}
	// The server noticed the silent peer and evicted the abandoned session.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Counters[core.CtrRemoteHBEvicts] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat eviction never recorded (count=%d)",
				srv.Stats().Counters[core.CtrRemoteHBEvicts])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRedialBudgetExhausted partitions a session and never heals: the
// policy must burn its budget, give up, and retire the tracker with an
// errors.Is-stable session-lost error.
func TestRedialBudgetExhausted(t *testing.T) {
	n := vnet.New(4)
	startVnetServer(t, n, WithHeartbeat(10*time.Millisecond, 3))
	pol := chaosPolicy()
	pol.Budget = 250 * time.Millisecond
	pol.MaxDelay = 20 * time.Millisecond
	tr := connectChaos(t, n, "lost-cli", pol)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}

	n.Partition("lost-cli", "srv")
	err := tr.Resume()
	if !errors.Is(err, core.ErrSessionLost) {
		t.Fatalf("exhausted redial: err = %v, want errors.Is ErrSessionLost", err)
	}
	var te *core.TrackerError
	if !errors.As(err, &te) || te.Recovery != core.RecoveryFailed {
		t.Fatalf("exhausted redial: err = %v, want RecoveryFailed", err)
	}
	if code, done := tr.ExitCode(); !done || code != -1 {
		t.Fatalf("retired tracker exit = %d/%v, want -1/true", code, done)
	}
	// The loss is sticky and keeps its identity on every later call.
	if err := tr.Resume(); !errors.Is(err, core.ErrSessionLost) {
		t.Fatalf("second resume after loss: %v", err)
	}
	stats := tr.ClientStats()
	if got := stats.Counters[core.CtrRemoteRedialGiveups]; got != 1 {
		t.Errorf("remote.redial_giveups = %d, want 1", got)
	}
	if got := stats.Counters[core.CtrRemoteRedials]; got < 2 {
		t.Errorf("remote.redials = %d, want >= 2 (several attempts inside the budget)", got)
	}
}

// TestRedialRetryAfterHintOnBusyServer proves the typed refusal crosses the
// wire intact: a full server turns a connect into ErrServerBusy carrying
// the server's retry-after hint.
func TestRedialRetryAfterHintOnBusyServer(t *testing.T) {
	n := vnet.New(6)
	startVnetServer(t, n, WithMaxSessions(1), WithRetryAfterHint(30*time.Millisecond))
	first := connectChaos(t, n, "busy-1", chaosPolicy())
	_ = first

	_, err := Connect("srv", "minipy", WithDialer(n.Dialer("busy-2")))
	if !errors.Is(err, core.ErrServerBusy) {
		t.Fatalf("connect to full server: err = %v, want errors.Is ErrServerBusy", err)
	}
	if hint := core.RetryAfterHint(err); hint != 30*time.Millisecond {
		t.Fatalf("retry-after hint = %v, want 30ms", hint)
	}
}

// TestHeartbeatDetectsDeadServerMidResume black-holes only the server->
// client direction while a Resume is in flight: without heartbeats the
// client would wait on the dropped response forever. The watchdog must kill
// the connection and the redial loop must bring the session back once the
// partition heals.
func TestHeartbeatDetectsDeadServerMidResume(t *testing.T) {
	n := vnet.New(8)
	startVnetServer(t, n, WithHeartbeat(15*time.Millisecond, 3))
	tr := connectChaos(t, n, "hb-cli", chaosPolicy())
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}

	n.PartitionOneWay("srv", "hb-cli")
	go func() {
		time.Sleep(100 * time.Millisecond)
		n.Heal("srv", "hb-cli")
	}()

	done := make(chan error, 1)
	go func() { done <- tr.Resume() }()
	select {
	case err := <-done:
		var te *core.TrackerError
		if !errors.As(err, &te) || te.Recovery != core.RecoveryRestarted {
			t.Fatalf("resume across dead server: err = %v, want RecoveryRestarted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Resume blocked forever on a dropped response — heartbeat watchdog never fired")
	}
	finishClean(t, tr)
}

// TestHeartbeatServerEvictsSilentPeer black-holes the client->server
// direction: the server stops hearing pings and must evict the session —
// freeing its slot — without waiting for the idle timeout.
func TestHeartbeatServerEvictsSilentPeer(t *testing.T) {
	n := vnet.New(9)
	srv := startVnetServer(t, n, WithHeartbeat(10*time.Millisecond, 3))
	tr := connectChaos(t, n, "mute-cli", chaosPolicy())
	_ = tr
	if srv.SessionCount() != 1 {
		t.Fatalf("session count = %d, want 1", srv.SessionCount())
	}

	n.PartitionOneWay("mute-cli", "srv")
	deadline := time.Now().Add(2 * time.Second)
	for srv.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("silent peer never evicted (sessions=%d)", srv.SessionCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats().Counters[core.CtrRemoteHBEvicts]; got < 1 {
		t.Errorf("remote.heartbeat_evictions = %d, want >= 1", got)
	}
}
