// Package gdbtracker implements the EasyTracker Tracker interface for
// compiled MiniC/assembly inferiors by driving MiniGDB over the MI protocol,
// reproducing the paper's GDB tracker (Section II-C1):
//
//   - the tracker talks to the debugger exclusively through a pipe carrying
//     MI records (Fig. 4);
//   - function tracking places an entry breakpoint plus exit breakpoints
//     found by disassembling the function and scanning for the return
//     instruction (the paper's x86 retq trick);
//   - the maxdepth breakpoint semantic runs server-side as a custom
//     extension;
//   - heap-allocation sizes come from the allocator interposition wrappers
//     (internal/rt), observed through silent internal watchpoints;
//   - program state crosses the pipe as the serialized core model.
package gdbtracker

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"easytracker/internal/asm"
	"easytracker/internal/core"
	"easytracker/internal/isa"
	"easytracker/internal/mi"
	"easytracker/internal/minic"
	"easytracker/internal/obs"
	"easytracker/internal/query"
	"easytracker/internal/ttd"
)

// Kind is the tracker registry name.
const Kind = "minigdb"

func init() {
	core.RegisterTracker(Kind, func() core.Tracker { return New() })
}

type trackKind int

const (
	bkUser trackKind = iota
	bkUserFunc
	bkTrackEntry
	bkTrackExit
)

type bpInfo struct {
	kind trackKind
	fn   string
}

// Tracker drives one compiled inferior through MiniGDB/MI.
type Tracker struct {
	core.Arming
	// Travel is time travel over the session's recording (timetravel.go).
	ttd.Travel

	// client is the MI client, its Timeout the command deadline
	// (core.WithCommandTimeout); in tests its connection may sit behind a
	// fault-injection wrapper (SetConnWrapper).
	client   *mi.Client
	wrapConn func(mi.Conn) mi.Conn

	// journal records every arming operation (breakpoints, tracked
	// functions, watchpoints) so a recovered session can replay them.
	journal []core.Probe
	// recovered marks the one-shot automatic recovery as spent;
	// recovering suppresses nested recovery while the journal replays;
	// dead retires the session after recovery failed.
	recovered  bool
	recovering bool
	dead       bool

	cfg      core.LoadConfig
	prog     *isa.Program
	file     string
	source   string
	loaded   bool
	started  bool
	implicit bool // started implicitly by a breakpoint call before Start
	exited   bool
	exitCode int

	reason   core.PauseReason
	curLine  int
	curFunc  string
	curDepth int
	lastLine int
	state    *core.State // cached snapshot for the current pause
	// stateVersion is the machine data version at which state was
	// fetched. After a resume, the snapshot is demoted to stale rather
	// than dropped: if the *stopped record shows the version (and
	// innermost function and frame depth) unchanged, the stale snapshot
	// is revalidated instead of re-serializing the full state.
	stateVersion uint64
	stale        *core.State
	staleVersion uint64
	staleFunc    string
	staleDepth   int
	// stopVersion and stopPC are the data version and program counter the
	// current pause's *stopped record reported; stopKnown is false when it
	// reported none.
	stopVersion uint64
	stopPC      uint64
	stopKnown   bool

	bps     map[int]bpInfo // breakpoint id -> classification
	watches map[int]string // watchpoint id -> variable identifier

	// rec is the session's recording, nil unless WithRecording was given
	// and the inferior started: one step per live pause, carrying the
	// State fetched there and the program output since the pause before
	// (recOut). Each run Start launches, session recovery's re-run
	// included, gets a fresh one; recErr latches the first recording
	// failure.
	rec    *ttd.Recorder
	recErr error
	recOut strings.Builder

	// deadlineHit marks that the WithExecutionTimeout timer fired; the
	// next "interrupted" stop rewrites its detail from "interrupt" to
	// "deadline" so tools can tell a Ctrl-C from an expired budget. Set
	// from the timer goroutine, consumed on the tool goroutine.
	deadlineHit atomic.Bool

	// obs is the tracker's instrument panel. The flight recorder inside it
	// is always on (sized by WithFlightRecorder, default 64 events): it is
	// the black box quoted in session crash reports, and a recorder that
	// only runs when observability was requested records nothing when an
	// unobserved session dies. Counters/histograms/gauges activate with
	// WithObservability.
	obs *obs.Metrics

	// tracer records one span per tracker op (and one per MI round trip,
	// nested under the op via the ambient parent) when span tracing is on;
	// nil otherwise, costing one pointer test per op.
	tracer *obs.Tracer

	// subprocess mode (NewSubprocess)
	subproc     string
	subprocArgs []string
	child       *exec.Cmd
	childDir    string
	mobjPath    string
}

// New returns an unloaded MiniGDB tracker using an in-process MI pipe.
func New() *Tracker {
	t := &Tracker{
		bps:     map[int]bpInfo{},
		watches: map[int]string{},
	}
	t.Arming = core.NewArming(t)
	t.Travel = ttd.NewTravel(t)
	return t
}

// LoadProgram builds the program at path (MiniC for .c, assembly for .s,
// a serialized image for .mobj) and boots the MI server for it.
func (t *Tracker) LoadProgram(path string, opts ...core.LoadOption) error {
	cfg := core.ApplyLoadOptions(opts)
	if t.subproc != "" {
		return t.werr("LoadProgram", t.loadSubprocess(path, cfg))
	}
	src := cfg.Source
	if src == "" && !strings.HasSuffix(path, ".mobj") {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("gdbtracker: %w", err)
		}
		src = string(data)
	}
	var prog *isa.Program
	var err error
	switch {
	case strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".asm"):
		prog, err = asm.Assemble(path, src)
	case strings.HasSuffix(path, ".mobj"):
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return fmt.Errorf("gdbtracker: %w", rerr)
		}
		prog = new(isa.Program)
		err = json.Unmarshal(data, prog)
	default:
		prog, err = minic.Compile(path, src)
	}
	if err != nil {
		return err
	}

	t.cfg = cfg
	t.prog = prog
	t.file = prog.SourceFile
	t.source = prog.Source
	t.initObs()
	if err := t.bootInProcess(); err != nil {
		return t.werr("LoadProgram", err)
	}
	t.loaded = true
	return nil
}

// initObs builds the instrument panel for the loaded configuration: the
// flight recorder always runs (the session layer's black box), the metric
// instruments only with WithObservability.
func (t *Tracker) initObs() {
	events := t.cfg.Obs.Events
	if events <= 0 {
		events = obs.DefaultEvents
	}
	t.obs = obs.New(obs.Config{Enabled: t.cfg.Obs.Enabled, Events: events})
	t.tracer = t.cfg.Obs.Tracer(Kind)
}

// Stats implements core.StatsProvider.
func (t *Tracker) Stats() *obs.Snapshot {
	s := t.obs.Snapshot()
	s.Tracker = Kind
	return s
}

// ObsMetrics implements core.MetricsSource, letting wrappers (AsyncTracker)
// report into the same panel.
func (t *Tracker) ObsMetrics() *obs.Metrics { return t.obs }

// Spans implements core.SpanProvider; nil when span tracing is off.
func (t *Tracker) Spans() []obs.SpanRecord { return t.tracer.Spans() }

// SpanTracer implements core.SpanTracerSource; nil when span tracing is off.
func (t *Tracker) SpanTracer() *obs.Tracer { return t.tracer }

// miTap is the MI wire tap, run after every round trip: the command/record
// pair lands in the flight recorder, and with metrics on, the round-trip
// latency lands in the OpMIRound histogram. It sees a round trip as the
// tracker does, deadline expiries and connection deaths included, which
// makes the flight recorder a faithful black box for crash reports.
func (t *Tracker) miTap(op string, args []string, resp *mi.Response, err error, d time.Duration) {
	rec := t.obs.Recorder()
	cmd := op
	if len(args) > 0 {
		cmd += " " + strings.Join(args, " ")
	}
	rec.Record("mi>", cmd)
	if rec != nil {
		r := miReply{op: op, d: d, err: err}
		kind := "mi!"
		if r.lost = err != nil && resp == nil; !r.lost {
			kind, r.sum = "mi<", mi.Summarize(resp)
		}
		obs.RecordLazy(rec, kind, r)
	}
	if t.obs.Enabled() {
		t.obs.Hist(core.OpMIRound).Observe(d)
		t.obs.Counter(core.CtrMICommands).Inc()
		if err != nil {
			t.obs.Counter(core.CtrMIErrors).Inc()
		}
	}
}

// miReply is an "mi<" or "mi!" flight-recorder event, formatted when the
// recorder is read.
type miReply struct {
	op   string
	sum  mi.Summary
	d    time.Duration
	err  error
	lost bool // the transport failed: no response
}

func (r miReply) String() string {
	d := r.d.Round(time.Microsecond)
	switch {
	case r.lost:
		return fmt.Sprintf("%s: transport failed after %s: %v", r.op, d, r.err)
	case r.err != nil:
		return fmt.Sprintf("%s (%s) %v", r.sum, d, r.err)
	}
	return fmt.Sprintf("%s (%s)", r.sum, d)
}

// send issues an MI command and pumps inferior output to the tool's stdout.
// A transport-level failure (timeout, crash, corrupted stream) triggers the
// session layer's one-shot recovery; the returned error is then a
// *core.TrackerError describing the failure and the recovery outcome.
func (t *Tracker) send(op string, args ...string) (*mi.Response, error) {
	resp, err := t.sendRaw(op, args...)
	if err != nil && resp == nil && !t.recovering && !t.dead {
		return nil, t.recoverSession(op, err)
	}
	return resp, err
}

// sendRaw is send without the recovery layer (used by teardown-adjacent
// paths and by recovery itself). With span tracing on, the round trip is
// one "mi.round_trip" span, Detail the MI command, nested under the
// tracker op in flight.
func (t *Tracker) sendRaw(op string, args ...string) (*mi.Response, error) {
	sp := t.tracer.Start(core.OpMIRound)
	sp.Detail = op
	t0 := time.Now()
	resp, err := t.client.Send(op, args...)
	sp.EndErr(err)
	t.miTap(op, args, resp, err, time.Since(t0))
	if out := t.client.TakeOutput(); out != "" {
		if t.cfg.Stdout != nil {
			fmt.Fprint(t.cfg.Stdout, out)
		}
		if t.rec != nil {
			t.recOut.WriteString(out)
		}
	}
	return resp, err
}

// werr wraps err in the tracker's typed error at Position, preserving
// already-typed session errors, whose raw MI command it replaces with the
// public operation name the tool actually called.
func (t *Tracker) werr(op string, err error) error {
	if err == nil {
		// Before errors.As, which would move te to the heap on success too.
		return nil
	}
	var te *core.TrackerError
	if errors.As(err, &te) && strings.HasPrefix(te.Op, "-") {
		te.Op = op
	}
	file, line := t.Position()
	return core.WrapErr(Kind, op, file, line, err)
}

// Start launches the inferior and pauses it at main's first line.
func (t *Tracker) Start() error {
	if !t.loaded {
		return t.werr("Start", core.ErrNoProgram)
	}
	if t.dead {
		return t.sessionDead("Start")
	}
	if t.started {
		if t.implicit {
			// Breakpoint calls before Start booted the inferior; it
			// is still paused at the entry point.
			t.implicit = false
			return nil
		}
		return t.werr("Start", errors.New("gdbtracker: already started"))
	}
	if t.cfg.TrackHeap {
		if _, err := t.send("-et-track-heap"); err != nil {
			return t.werr("Start", err)
		}
	}
	// Arm the instruction budget before -exec-run: the server applies it
	// to the machine at run time, and because Start re-runs after session
	// recovery, a rebooted inferior gets the same budget re-armed.
	if n := t.cfg.Budgets.MaxInstructions; n > 0 {
		if _, err := t.send("-et-budget", strconv.FormatUint(n, 10)); err != nil {
			return t.werr("Start", err)
		}
	}
	// Every run records from its entry pause; a run after session recovery
	// starts a fresh recording, since the old timeline died with the old
	// inferior.
	if t.cfg.Recording {
		t.rec = ttd.NewRecorder(t.file, t.source, Kind, t.cfg.RecordInterval)
		t.recErr = nil
		t.recOut.Reset()
	}
	sp := t.tracer.StartOp(core.OpStart)
	t0 := t.obs.Now()
	resp, err := t.send("-exec-run")
	if err != nil {
		sp.EndErr(err)
		return t.werr("Start", err)
	}
	t.started = true
	err = t.classifyStop(resp)
	if err == nil {
		err = t.recordPause()
	}
	t.obs.Observe(core.OpStart, t0)
	sp.EndErr(err)
	return t.werr("Start", err)
}

// classifyStop turns the *stopped record into the pause reason taxonomy.
func (t *Tracker) classifyStop(resp *mi.Response) error {
	// Demote the snapshot of the previous pause to a stale candidate:
	// fetchState revalidates it against this stop's data version before
	// reuse.
	if t.state != nil {
		t.stale, t.staleVersion = t.state, t.stateVersion
		t.staleFunc, t.staleDepth = t.curFunc, t.curDepth
		t.state = nil
	}
	stopped, ok := resp.Stopped()
	if !ok {
		return fmt.Errorf("gdbtracker: no *stopped record in response")
	}
	line, _ := stopped.Results.GetInt("line")
	t.lastLine = t.curLine
	t.curLine = int(line)
	// The record's strings are slices of its line: copy the function's
	// name when it changes rather than keep the line alive with it.
	if fn := stopped.GetString("func"); fn != t.curFunc {
		t.curFunc = strings.Clone(fn)
	}
	depth, _ := stopped.Results.GetInt("depth")
	t.curDepth = int(depth)
	ver, verr := strconv.ParseUint(stopped.GetString("version"), 10, 64)
	pc, perr := strconv.ParseUint(stopped.GetString("addr"), 0, 64)
	t.stopVersion, t.stopPC, t.stopKnown = ver, pc, verr == nil && perr == nil
	switch reason := stopped.GetString("reason"); reason {
	case "entry":
		t.reason = core.PauseReason{Type: core.PauseEntry, File: t.file, Line: int(line)}
	case "end-stepping-range":
		t.reason = core.PauseReason{Type: core.PauseStep, File: t.file, Line: int(line)}
	case "breakpoint-hit":
		no, _ := stopped.Results.GetInt("bkptno")
		info := t.bps[int(no)]
		switch info.kind {
		case bkTrackEntry:
			t.reason = core.PauseReason{
				Type: core.PauseCall, Function: info.fn,
				File: t.file, Line: int(line),
			}
		case bkTrackExit:
			// The exit breakpoints are return events: the stop carries
			// a0, the raw return value.
			var ret *core.Value
			if v, ok := stopped.Results.GetInt("return-value"); ok {
				ret = core.NewInt(v)
			}
			t.reason = core.PauseReason{
				Type: core.PauseReturn, Function: info.fn,
				File: t.file, Line: int(line),
				ReturnValue: ret,
			}
		case bkUserFunc:
			t.reason = core.PauseReason{
				Type: core.PauseBreakpoint, Function: info.fn,
				File: t.file, Line: int(line),
			}
		default:
			t.reason = core.PauseReason{
				Type: core.PauseBreakpoint, File: t.file, Line: int(line),
			}
		}
	case "watchpoint-trigger":
		wpt, _ := stopped.Results.Get("wpt").(mi.Tuple)
		no, _ := wpt.GetInt("number")
		val, _ := stopped.Results.Get("value").(mi.Tuple)
		t.reason = core.PauseReason{
			Type:     core.PauseWatch,
			Variable: t.watches[int(no)],
			Old:      parseWatchValue(val.GetString("old")),
			New:      parseWatchValue(val.GetString("new")),
			File:     t.file, Line: int(line),
		}
	case "interrupted":
		detail := stopped.GetString("detail")
		if detail == "interrupt" && t.deadlineHit.Swap(false) {
			detail = "deadline"
		}
		t.reason = core.PauseReason{
			Type: core.PauseInterrupted, Detail: detail,
			Function: t.curFunc, File: t.file, Line: int(line),
		}
		if detail == "step-budget" {
			t.obs.Event("budget", "instruction budget exhausted")
			if t.obs.Enabled() {
				t.obs.Counter(core.CtrBudgetTrips).Inc()
			}
		} else {
			t.obs.Event("interrupt", detail)
			if t.obs.Enabled() {
				t.obs.Counter(core.CtrInterrupts).Inc()
			}
		}
	case "exited", "signal-received":
		code, _ := stopped.Results.GetInt("exit-code")
		t.exited = true
		t.exitCode = int(code)
		t.reason = core.PauseReason{Type: core.PauseExited, ExitCode: int(code)}
	default:
		return fmt.Errorf("gdbtracker: unknown stop reason %q", reason)
	}
	switch t.reason.Type {
	case core.PauseWatch, core.PauseReturn, core.PauseInterrupted:
		// These hold Values or a detail sliced from the stop record's
		// line, which the recorder must not keep: format them now.
		t.obs.Event("pause", t.reason.String())
	default:
		obs.RecordLazy(t.obs.Recorder(), "pause", t.reason)
	}
	if t.obs.Enabled() {
		t.obs.Counter(core.CtrPauses).Inc()
		if t.reason.Type == core.PauseWatch {
			t.obs.Counter(core.CtrWatchHits).Inc()
		}
	}
	return nil
}

// parseWatchValue converts the server's rendered old/new watch values.
func parseWatchValue(s string) *core.Value {
	if s == "" {
		return nil
	}
	if strings.HasPrefix(s, "0x") {
		if v, err := strconv.ParseUint(s, 0, 64); err == nil {
			if v == 0 {
				return core.NewInvalid()
			}
			val := core.NewInt(int64(v))
			val.LanguageType = "ptr"
			return val
		}
	}
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return core.NewInt(v)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return core.NewFloat(f)
	}
	return core.NewString(s)
}

func (t *Tracker) registerList() (map[string]uint64, error) {
	resp, err := t.send("-data-list-register-values", "x")
	if err != nil {
		return nil, err
	}
	vals, _ := resp.Result.Results.Get("register-values").(mi.List)
	out := make(map[string]uint64, len(vals))
	for _, it := range vals {
		tp, _ := it.(mi.Tuple)
		v, _ := strconv.ParseUint(tp.GetString("value"), 10, 64)
		out[tp.GetString("name")] = v
	}
	return out, nil
}

func (t *Tracker) control(name, op string) error {
	if t.dead {
		return t.sessionDead(name)
	}
	if !t.started {
		return t.werr(name, core.ErrNotStarted)
	}
	if t.exited {
		return t.werr(name, core.ErrExited)
	}
	t.Present()
	sp := t.tracer.StartOp(opHistName(name))
	t0 := t.obs.Now()
	disarm := t.armExecDeadline()
	resp, err := t.send(op)
	disarm()
	if err == nil {
		err = t.classifyStop(resp)
	}
	if err == nil {
		err = t.recordPause()
	}
	t.obs.Observe(opHistName(name), t0)
	sp.EndErr(err)
	return t.werr(name, err)
}

// armExecDeadline starts the WithExecutionTimeout timer for one resuming
// command: on expiry the inferior is interrupted — a recoverable pause with
// all session state intact — rather than the transport torn down. The
// returned disarm stops the timer. If the timer fired but the run stopped
// for another reason first, the interrupt stays latched server-side and
// surfaces as an immediate "interrupted" pause on the next resume; the
// deadlineHit flag makes its detail read "deadline" either way.
func (t *Tracker) armExecDeadline() func() {
	d := t.cfg.ExecTimeout
	if d <= 0 {
		return func() {}
	}
	timer := time.AfterFunc(d, func() {
		t.deadlineHit.Store(true)
		t.Interrupt()
	})
	return func() { timer.Stop() }
}

// Interrupt implements core.Interrupter: it asks the running inferior to
// pause before its next instruction. The request crosses the pipe out of
// band (no response of its own), so it is safe to call from any goroutine —
// including while the tool goroutine is blocked inside Resume — and the
// in-flight command returns a normal "interrupted" pause. No-op when the
// session is down.
func (t *Tracker) Interrupt() {
	if t.client == nil || t.dead {
		return
	}
	_ = t.client.Interrupt()
}

// opHistName maps a public control-op name onto its canonical histogram.
func opHistName(name string) string {
	switch name {
	case "Resume":
		return core.OpResume
	case "Step":
		return core.OpStep
	case "Next":
		return core.OpNext
	}
	return "op." + strings.ToLower(name)
}

// Resume continues to the next pause condition.
func (t *Tracker) Resume() error { return t.control("Resume", "-exec-continue") }

// Step executes one source line, entering calls.
func (t *Tracker) Step() error { return t.control("Step", "-exec-step") }

// Next executes one source line, stepping over calls.
func (t *Tracker) Next() error { return t.control("Next", "-exec-next") }

// Terminate shuts the debugger down. It never triggers recovery: a dead
// session is simply torn down.
func (t *Tracker) Terminate() error {
	if t.client == nil {
		return nil
	}
	if !t.dead {
		_, _ = t.sendRaw("-gdb-exit")
	}
	t.teardown()
	t.closeSubprocess()
	t.exited = true
	return nil
}

// Arm registers any probe kind — the unified arming surface behind the
// four convenience methods. Conditions are compiled client-side first so a
// bad expression fails with a typed ErrBadQuery before anything crosses the
// MI pipe; the server compiles its own copy at insert time and evaluates it
// inside the debugger's stop filter, so non-matching hits never pay an MI
// round trip.
func (t *Tracker) Arm(p core.Probe) error {
	sp := t.tracer.StartOp(core.SpanArm)
	sp.Detail = p.Op()
	err := t.armChecked(p)
	sp.EndErr(err)
	return err
}

func (t *Tracker) armChecked(p core.Probe) error {
	op := p.Op()
	if !t.loaded {
		return t.werr(op, core.ErrNoProgram)
	}
	if t.dead {
		return t.sessionDead(op)
	}
	if p.Condition != "" {
		if _, err := query.Compile(p.Condition); err != nil {
			return t.werr(op, err)
		}
	}
	if err := t.ensureRunning(); err != nil {
		return t.werr(op, err)
	}
	if err := t.armProbe(p); err != nil {
		return t.werr(op, err)
	}
	t.journal = append(t.journal, p)
	t.obs.Gauge(core.GaugeJournalSize).Set(int64(len(t.journal)))
	return nil
}

// ConditionalProbes advertises the ConditionalBreaker capability.
func (t *Tracker) ConditionalProbes() bool { return true }

// armProbe performs the MI insertion for one probe (also used by the
// session journal replay).
func (t *Tracker) armProbe(p core.Probe) error {
	switch p.Kind {
	case core.ProbeLine:
		return t.armBreakLine(p.Line, p.BreakConfig)
	case core.ProbeFunc:
		return t.armBreakFunc(p.Function, p.BreakConfig)
	case core.ProbeTrack:
		return t.armTrack(p.Function, p.BreakConfig)
	case core.ProbeWatch:
		return t.armWatch(p.VarID, p.BreakConfig)
	default:
		return core.ErrUnsupported
	}
}

// breakArgs renders the shared BreakConfig flags of -break-insert. The
// condition crosses the pipe as one quoted argument (the MI client quotes
// every argument containing spaces).
func breakArgs(bc core.BreakConfig) []string {
	var args []string
	if bc.OneShot {
		args = append(args, "-t")
	}
	if bc.Condition != "" {
		args = append(args, "-c", bc.Condition)
	}
	if bc.IgnoreHits > 0 {
		args = append(args, "-i", strconv.Itoa(bc.IgnoreHits))
	}
	if bc.MaxDepth > 0 {
		args = append(args, "--maxdepth", strconv.Itoa(bc.MaxDepth))
	}
	return args
}

// armBreakLine performs the line-breakpoint insertion.
func (t *Tracker) armBreakLine(line int, bc core.BreakConfig) error {
	args := append(breakArgs(bc), strconv.Itoa(line))
	resp, err := t.send("-break-insert", args...)
	if err != nil {
		if strings.Contains(err.Error(), "no code at line") {
			return core.ErrBadLine
		}
		return err
	}
	t.bps[bpNumber(resp)] = bpInfo{kind: bkUser}
	return nil
}

// armBreakFunc performs the function-breakpoint insertion (the breakpoint
// fires with arguments stored).
func (t *Tracker) armBreakFunc(name string, bc core.BreakConfig) error {
	args := append(breakArgs(bc), "--function", name)
	resp, err := t.send("-break-insert", args...)
	if err != nil {
		if strings.Contains(err.Error(), "no function") {
			return core.ErrUnknownFunction
		}
		return err
	}
	t.bps[bpNumber(resp)] = bpInfo{kind: bkUserFunc, fn: name}
	return nil
}

// armTrack performs the entry/exit breakpoint insertion of TrackFunction.
// The exit breakpoints are found exactly as in the paper: ask the debugger
// to disassemble the function, scan for the return instruction, and
// breakpoint its address. A condition gates entry and exit independently;
// the --event flag tells the server which event vocabulary the condition
// sees at each site.
func (t *Tracker) armTrack(name string, bc core.BreakConfig) error {
	args := append(breakArgs(bc), "--event", "call", "--function", name)
	resp, err := t.send("-break-insert", args...)
	if err != nil {
		if strings.Contains(err.Error(), "no function") {
			return core.ErrUnknownFunction
		}
		return err
	}
	t.bps[bpNumber(resp)] = bpInfo{kind: bkTrackEntry, fn: name}

	dis, err := t.send("-data-disassemble", name)
	if err != nil {
		return err
	}
	insns, _ := dis.Result.Results.Get("asm_insns").(mi.List)
	found := false
	for _, it := range insns {
		tp, _ := it.(mi.Tuple)
		if tp.GetString("inst") != "ret" {
			continue
		}
		found = true
		bargs := append(breakArgs(bc), "--event", "return", "*"+tp.GetString("address"))
		bresp, err := t.send("-break-insert", bargs...)
		if err != nil {
			return err
		}
		t.bps[bpNumber(bresp)] = bpInfo{kind: bkTrackExit, fn: name}
	}
	if !found {
		return fmt.Errorf("gdbtracker: no return instruction found in %q", name)
	}
	return nil
}

// armWatch performs the watchpoint insertion. Global variables ("name",
// "::name" or "globals.name") can be watched any time; locals
// ("func:name") require a live activation of the function, as with GDB.
// The MI -break-watch command has no temporary (-t) form, so a one-shot
// watch is rejected up front rather than silently armed as persistent.
func (t *Tracker) armWatch(varID string, bc core.BreakConfig) error {
	if bc.OneShot {
		return fmt.Errorf("one-shot watchpoints: %w", core.ErrUnsupported)
	}
	fn, name, err := core.ParseVarRef(varID)
	if err != nil {
		return err
	}
	expr := name
	if fn != "" && fn != "::" {
		expr = fn + ":" + name
	}
	var args []string
	if bc.Condition != "" {
		args = append(args, "-c", bc.Condition)
	}
	if bc.IgnoreHits > 0 {
		args = append(args, "-i", strconv.Itoa(bc.IgnoreHits))
	}
	args = append(args, expr)
	resp, err := t.send("-break-watch", args...)
	if err != nil {
		if strings.Contains(err.Error(), "no global") || strings.Contains(err.Error(), "no live local") {
			return core.ErrUnknownVariable
		}
		return err
	}
	wpt, _ := resp.Result.Results.Get("wpt").(mi.Tuple)
	no, _ := wpt.GetInt("number")
	t.watches[int(no)] = varID
	t.obs.Gauge(core.GaugeWatches).Set(int64(len(t.watches)))
	return nil
}

// ensureRunning starts the inferior implicitly when breakpoints are set
// before Start (the debugger needs a live process to own them; the paper's
// scripts call the control functions in either order).
func (t *Tracker) ensureRunning() error {
	if t.started {
		return nil
	}
	if err := t.Start(); err != nil {
		return err
	}
	t.implicit = true
	return nil
}

func bpNumber(resp *mi.Response) int {
	bkpt, _ := resp.Result.Results.Get("bkpt").(mi.Tuple)
	no, _ := bkpt.GetInt("number")
	return int(no)
}

// PauseReason reports why the inferior paused.
func (t *Tracker) PauseReason() core.PauseReason { return t.reason }

// ExitCode returns the exit status after termination.
func (t *Tracker) ExitCode() (int, bool) {
	if !t.exited {
		return 0, false
	}
	return t.exitCode, true
}

// fetchState pulls the serialized snapshot across the pipe.
func (t *Tracker) fetchState() (*core.State, error) {
	if t.dead {
		return nil, t.sessionDead("State")
	}
	if !t.started {
		return nil, core.ErrNotStarted
	}
	if t.Rewound() {
		// The State recorded at the cursor, with the landing's reason.
		return t.rec.Store().StateAt(t.Pos())
	}
	if t.exited {
		return nil, core.ErrExited
	}
	if t.state != nil {
		t.obs.Counter(core.CtrSnapshotHits).Inc()
		return t.state, nil
	}
	if st := t.revalidateStale(); st != nil {
		return st, nil
	}
	sp := t.tracer.StartOp(core.OpStateFetch)
	t0 := t.obs.Now()
	st, ver, err := t.inspect()
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	// The MI server sends no reason: what a stop means (a tracked entry
	// or exit, a watch's ID) is the tracker's, and every State reports
	// it, as PauseReason does. The decoded State is this call's own to
	// stamp. The stale candidate is spent once the pause has its own.
	st.Reason = t.reason
	t.state, t.stale, t.stateVersion = st, nil, ver
	t.obs.Observe(core.OpStateFetch, t0)
	sp.End()
	t.obs.Counter(core.CtrSnapshotMisses).Inc()
	return st, nil
}

// inspect reads the machine's State across the pipe, with the data version
// it was read at. The machine's memory outlives the exit, so after it the
// State still holds the globals' final values.
func (t *Tracker) inspect() (*core.State, uint64, error) {
	resp, err := t.send("-et-inspect")
	if err != nil {
		return nil, 0, err
	}
	st := new(core.State)
	if err := st.UnmarshalJSONString(resp.Result.GetString("state")); err != nil {
		return nil, 0, fmt.Errorf("gdbtracker: bad state payload: %w", err)
	}
	ver, _ := strconv.ParseUint(resp.Result.GetString("version"), 10, 64)
	return st, ver, nil
}

// revalidateStale reuses the previous pause's snapshot when the *stopped
// record proves no store (or debugger write, or heap move) happened since
// it was serialized and the innermost frame is still the same invocation
// (same function name at the same frame depth). The record carries the
// data version and the PC, and neither can move before the next execution
// command: only execution and debugger memory writes bump the version, and
// the tracker sends no write. Only the position and pause reason can
// differ, so the stale snapshot is revalidated as a shallow clone with a
// fresh innermost Frame, and the pause costs no MI command at all.
// Cloning matters: consumers (pt.Record, the session's own recording)
// retain each pause's State, so patching the previous pause's snapshot in
// place would retroactively rewrite recorded history.
func (t *Tracker) revalidateStale() *core.State {
	if t.stale == nil || t.stale.Frame == nil || !t.stopKnown ||
		t.stopVersion != t.staleVersion || t.staleFunc != t.curFunc ||
		t.stale.Frame.Name != t.curFunc || t.staleDepth != t.curDepth {
		return nil
	}
	cp := *t.stale
	fr := *t.stale.Frame
	fr.Line, fr.PC = t.curLine, t.stopPC
	cp.Frame = &fr
	cp.Reason = t.reason
	t.state, t.stateVersion = &cp, t.stopVersion
	t.stale = nil
	t.obs.Counter(core.CtrSnapshotHits).Inc()
	return &cp
}

// CurrentFrame returns the innermost frame of the paused inferior.
func (t *Tracker) CurrentFrame() (*core.Frame, error) {
	st, err := t.fetchState()
	if err != nil {
		return nil, t.werr("CurrentFrame", err)
	}
	if st.Frame == nil {
		return nil, t.werr("CurrentFrame", core.ErrExited)
	}
	return st.Frame, nil
}

// GlobalVariables returns the program's globals (runtime internals hidden).
func (t *Tracker) GlobalVariables() ([]*core.Variable, error) {
	st, err := t.fetchState()
	if err != nil {
		return nil, t.werr("GlobalVariables", err)
	}
	return st.Globals, nil
}

// State returns the full snapshot (frames, globals, pause reason). The
// returned struct is a fresh shallow copy per call: callers may set its
// Reason without writing into the pause-scoped cache, but the Frame and
// Globals graphs are shared with the cache and must be treated as
// read-only.
func (t *Tracker) State() (*core.State, error) {
	st, err := t.fetchState()
	if err != nil {
		return nil, t.werr("State", err)
	}
	cp := *st
	return &cp, nil
}

// InvalidateStateCache drops the cached snapshot — including the stale
// revalidation candidate — so the next inspection crosses the pipe again
// with a full transfer (benchmarks measuring the transfer cost).
func (t *Tracker) InvalidateStateCache() {
	t.state = nil
	t.stale = nil
}

// Position returns the next line to execute; while rewound into the
// recording it reports the replay cursor's line.
func (t *Tracker) Position() (string, int) {
	if t.Rewound() {
		return t.file, t.rec.Store().LineAt(t.Pos())
	}
	return t.file, t.curLine
}

// LastLine returns the most recently executed line.
func (t *Tracker) LastLine() int { return t.lastLine }

// SourceLines returns the program text.
func (t *Tracker) SourceLines() ([]string, error) {
	if !t.loaded {
		return nil, t.werr("SourceLines", core.ErrNoProgram)
	}
	return strings.Split(strings.TrimRight(t.source, "\n"), "\n"), nil
}

// Registers implements core.RegisterInspector (the paper's
// get_registers_gdb).
func (t *Tracker) Registers() (map[string]uint64, error) {
	if t.dead {
		return nil, t.sessionDead("Registers")
	}
	if !t.started {
		return nil, t.werr("Registers", core.ErrNotStarted)
	}
	if t.Rewound() {
		return nil, t.notRecorded("Registers")
	}
	regs, err := t.registerList()
	return regs, t.werr("Registers", err)
}

// ValueAt implements core.MemoryInspector (the paper's get_value_at_gdb).
func (t *Tracker) ValueAt(addr uint64, size int) ([]byte, error) {
	if t.dead {
		return nil, t.sessionDead("ValueAt")
	}
	if !t.started {
		return nil, t.werr("ValueAt", core.ErrNotStarted)
	}
	if t.Rewound() {
		return nil, t.notRecorded("ValueAt")
	}
	resp, err := t.send("-data-read-memory",
		strconv.FormatUint(addr, 10), strconv.Itoa(size))
	if err != nil {
		return nil, t.werr("ValueAt", err)
	}
	hexStr := resp.Result.GetString("memory")
	out := make([]byte, len(hexStr)/2)
	for i := range out {
		v, err := strconv.ParseUint(hexStr[2*i:2*i+2], 16, 8)
		if err != nil {
			return nil, err
		}
		out[i] = byte(v)
	}
	return out, nil
}

// MemorySegments implements core.MemoryInspector. It is nil when there
// is no answer: before Start, when the round trip fails, and while
// rewound, since the recording holds no segment table.
func (t *Tracker) MemorySegments() []core.Segment {
	if !t.started || t.Rewound() {
		return nil
	}
	resp, err := t.send("-et-segments")
	if err != nil {
		return nil
	}
	segs, _ := resp.Result.Results.Get("segments").(mi.List)
	var out []core.Segment
	for _, it := range segs {
		tp, _ := it.(mi.Tuple)
		start, _ := strconv.ParseUint(tp.GetString("start"), 10, 64)
		size, _ := strconv.ParseUint(tp.GetString("size"), 10, 64)
		out = append(out, core.Segment{Name: tp.GetString("name"), Start: start, Size: size})
	}
	return out
}

// HeapBlocks implements core.HeapInspector: the live allocation map
// maintained from the interposition watchpoints.
func (t *Tracker) HeapBlocks() (map[uint64]uint64, error) {
	if t.dead {
		return nil, t.sessionDead("HeapBlocks")
	}
	if !t.started {
		return nil, t.werr("HeapBlocks", core.ErrNotStarted)
	}
	if t.Rewound() {
		return nil, t.notRecorded("HeapBlocks")
	}
	resp, err := t.send("-et-heap-blocks")
	if err != nil {
		return nil, t.werr("HeapBlocks", err)
	}
	blocks, _ := resp.Result.Results.Get("blocks").(mi.List)
	out := map[uint64]uint64{}
	for _, it := range blocks {
		tp, _ := it.(mi.Tuple)
		addr, _ := strconv.ParseUint(tp.GetString("addr"), 10, 64)
		size, _ := strconv.ParseUint(tp.GetString("size"), 10, 64)
		out[addr] = size
	}
	return out, nil
}
