package gdbtracker

import (
	"errors"
	"fmt"
	"os/exec"

	"easytracker/internal/core"
	"easytracker/internal/mi"
)

// This file is the hardened session layer between the tracker and the
// MiniGDB transport: per-round-trip deadlines (core.WithCommandTimeout),
// liveness detection on the subprocess, a journal of everything the tool
// armed, and automatic one-shot recovery — on a crash, hang or protocol
// corruption the debugger is restarted, the journal is replayed, and the
// caller gets a *core.TrackerError describing what was lost.

// SetConnWrapper installs a hook applied to every connection the tracker
// opens — including the ones recovery opens. It exists for fault-injection
// tests (wrap with mi.NewFaultConn) and diagnostics (logging transports).
// In-process mode only; must be called before LoadProgram.
func (t *Tracker) SetConnWrapper(wrap func(mi.Conn) mi.Conn) { t.wrapConn = wrap }

// bootInProcess builds a fresh in-process MI server for the loaded program
// and connects the transport to it. The server runs each command on the
// goroutine that sends it, so the session starts no goroutine.
func (t *Tracker) bootInProcess() error {
	srv := mi.NewServer(t.prog)
	srv.SetStdin(t.cfg.Stdin)
	conn := mi.Connect(srv)
	if t.wrapConn != nil {
		conn = t.wrapConn(conn)
	}
	t.client = mi.NewClient(conn)
	t.client.Timeout = t.cfg.CommandTimeout
	return nil
}

// bootSubprocess spawns the minigdb binary, consumes its greeting and loads
// the serialized program image prepared by loadSubprocess.
func (t *Tracker) bootSubprocess() error {
	cmd := exec.Command(t.subproc, t.subprocArgs...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("gdbtracker: spawning minigdb: %w", err)
	}
	conn := mi.NewStdioConn(stdout, stdin, nil)
	if line, err := conn.Recv(); err != nil || line != "(gdb)" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("gdbtracker: bad minigdb greeting %q (%v)", line, err)
	}
	t.child = cmd
	t.client = mi.NewClient(conn)
	t.client.Timeout = t.cfg.CommandTimeout
	if _, err := t.sendRaw("-file-exec-and-symbols", t.mobjPath); err != nil {
		t.teardown()
		return err
	}
	return nil
}

// reboot builds a fresh session for the already-loaded program.
func (t *Tracker) reboot() error {
	if t.subproc != "" {
		return t.bootSubprocess()
	}
	return t.bootInProcess()
}

// teardown closes the transport and reaps the subprocess, returning the
// child's wait status ("exit status 3", "signal: killed", ...) when there
// was one — the liveness evidence quoted in session-lost errors.
func (t *Tracker) teardown() string {
	if t.client != nil {
		_ = t.client.Close()
	}
	status := ""
	if t.child != nil {
		// If the child already crashed, Kill is a no-op and Wait
		// returns the real exit state; if it is wedged (deadline
		// path), Kill ends it.
		_ = t.child.Process.Kill()
		err := t.child.Wait()
		if t.child.ProcessState != nil {
			status = t.child.ProcessState.String()
		} else if err != nil {
			status = err.Error()
		}
		t.child = nil
	}
	return status
}

// classifySessionErr maps a transport failure onto the public sentinels,
// folding in the subprocess wait status when one exists.
func classifySessionErr(err error, childStatus string) error {
	if errors.Is(err, mi.ErrTimeout) {
		return fmt.Errorf("%w: %w", core.ErrCommandTimeout, err)
	}
	if childStatus != "" {
		return fmt.Errorf("%w: %w (minigdb: %s)", core.ErrSessionLost, err, childStatus)
	}
	return fmt.Errorf("%w: %w", core.ErrSessionLost, err)
}

// recoverSession handles a transport failure during op: restart the
// debugger once, replay the journal, and return a *core.TrackerError
// describing the failure, the recovery outcome and anything lost. The
// tracker remains usable after a successful recovery — paused at the
// inferior's entry point with all journal entries re-armed.
func (t *Tracker) recoverSession(op string, cause error) error {
	te := &core.TrackerError{
		Op: op, Kind: Kind,
		File: t.file, Line: t.curLine,
	}
	wasStarted := t.started
	wasImplicit := t.implicit
	t.obs.Event("session", fmt.Sprintf("%s failed at line %d: %v", op, t.curLine, cause))
	status := t.teardown()
	te.Err = classifySessionErr(cause, status)
	if status != "" {
		t.obs.Event("session", "minigdb reaped: "+status)
	}

	if t.recovered {
		// The one-shot recovery budget is spent: declare the session
		// dead instead of thrashing through restart loops.
		t.obs.Event("session", "recovery budget spent; retiring session")
		t.markDead()
		te.Recovery = core.RecoveryFailed
		te.Trail = t.obs.EventDump()
		return te
	}
	t.recovered = true
	t.recovering = true
	defer func() { t.recovering = false }()
	t.obs.Counter(core.CtrRecoveries).Inc()

	if err := t.reboot(); err != nil {
		t.obs.Event("session", "restart failed: "+err.Error())
		t.markDead()
		te.Recovery = core.RecoveryFailed
		te.Err = fmt.Errorf("%w; restart failed: %v", te.Err, err)
		te.Trail = t.obs.EventDump()
		return te
	}

	// Reset per-session state: the new inferior starts from scratch.
	t.bps = map[int]bpInfo{}
	t.watches = map[int]string{}
	t.state, t.stale = nil, nil
	t.Present()
	t.rec = nil
	t.exited = false
	t.exitCode = 0
	t.started = false
	t.implicit = false

	if wasStarted {
		if err := t.Start(); err != nil {
			t.obs.Event("session", "restart failed: "+err.Error())
			t.markDead()
			te.Recovery = core.RecoveryFailed
			te.Err = fmt.Errorf("%w; restart failed: %v", te.Err, err)
			te.Trail = t.obs.EventDump()
			return te
		}
		// If the original session was started implicitly (a breakpoint
		// call before Start), keep that pending so a later explicit
		// Start still succeeds.
		t.implicit = wasImplicit
		te.Lost = t.replayJournal()
	}
	// Execution progress is always lost: the inferior is back at entry.
	t.obs.Event("session", fmt.Sprintf(
		"restarted; journal replayed (%d armed, %d lost)", len(t.journal), len(te.Lost)))
	te.Recovery = core.RecoveryRestarted
	te.Trail = t.obs.EventDump()
	return te
}

// replayJournal re-arms every journaled breakpoint, tracked function and
// watchpoint against the fresh session, reporting the ones that could not
// be re-established (e.g. a watchpoint on a local whose function has no
// live activation at the entry point).
func (t *Tracker) replayJournal() (lost []string) {
	for _, p := range t.journal {
		if err := t.armProbe(p); err != nil {
			lost = append(lost, p.String())
			// The flight recorder keeps the evidence of what the
			// recovered session is missing — and why re-arming failed.
			t.obs.Event("lost", p.String()+": "+err.Error())
			t.obs.Counter(core.CtrLostItems).Inc()
		}
	}
	return lost
}

// markDead retires the session permanently: control and inspection calls
// fail with ErrSessionLost, and ExitCode reports termination so Listing-1
// style loops come to an end.
func (t *Tracker) markDead() {
	t.obs.Event("session", "session retired; ExitCode reports -1/done")
	t.dead = true
	t.exited = true
	t.exitCode = -1
}

// sessionDead is the error every call on a dead session gets. It carries
// the flight-recorder dump: the recorder outlives the session, so the
// postmortem trail stays available to every later caller.
func (t *Tracker) sessionDead(op string) error {
	return &core.TrackerError{
		Op: op, Kind: Kind, File: t.file, Line: t.curLine,
		Recovery: core.RecoveryFailed,
		Trail:    t.obs.EventDump(),
		Err:      fmt.Errorf("%w: session is down", core.ErrSessionLost),
	}
}
