// Package easytracker is a Go reproduction of EasyTracker (Barollet et al.,
// CGO 2024): a language-agnostic library for controlling and inspecting
// program execution, designed so that teachers who are not debugging experts
// can build program-visualization tools.
//
// A tool written against this package loads an inferior program, controls
// its execution (start, step, next, resume; line and function breakpoints
// with a maxdepth filter; function tracking; variable watchpoints) and,
// whenever the inferior is paused, inspects a serializable, language-
// agnostic representation of its state: a stack of Frames holding Variables
// whose Values carry an abstract type (PRIMITIVE, REF, LIST, DICT, STRUCT,
// NONE, INVALID, FUNCTION), a conceptual memory location, an address, and
// the type name in the inferior language's own terms.
//
// Two trackers ship with the library, mirroring the paper:
//
//   - "minipy" controls MiniPy programs (a Python-like interpreted language,
//     internal/minipy) through settrace-style hooks, with the inferior in
//     its own goroutine;
//   - "minigdb" controls compiled MiniC and assembly programs through a
//     GDB/MI-style protocol spoken to MiniGDB (internal/dbg) over a pipe,
//     with function-exit breakpoints found by disassembly and heap sizes
//     recovered through allocator interposition;
//
// plus "trace", which replays a recorded execution trace through the same
// interface (internal/tracetracker).
//
// The minimal control loop — the paper's Listing 1 — is identical for every
// tracker:
//
//	tracker, _ := easytracker.New(easytracker.KindFor(path))
//	tracker.LoadProgram(path)
//	tracker.Start()
//	for {
//	    if _, done := tracker.ExitCode(); done {
//	        break
//	    }
//	    frame, _ := tracker.CurrentFrame()
//	    draw(frame)
//	    tracker.Step()
//	}
package easytracker

import (
	"encoding/json"
	"io"
	"strings"

	"easytracker/internal/core"
	"easytracker/internal/obs"
	"easytracker/internal/remote"
	"easytracker/internal/spanexport"

	// Register the built-in trackers.
	_ "easytracker/internal/gdbtracker"
	_ "easytracker/internal/pytracker"
	_ "easytracker/internal/tracetracker"
)

// Tracker is the language-agnostic control and inspection interface
// (paper Section II-B). Control functions return only when the inferior is
// paused or terminated.
type Tracker = core.Tracker

// State-model types (paper Fig. 3).
type (
	// Frame is one activation record of the paused inferior.
	Frame = core.Frame
	// Variable is a named slot holding a Value.
	Variable = core.Variable
	// Value is the serializable representation of one runtime value.
	Value = core.Value
	// AbstractType classifies a Value across languages.
	AbstractType = core.AbstractType
	// Location places a Value in the conceptual memory of the program.
	Location = core.Location
	// DictEntry is one key/value pair of a Dict value.
	DictEntry = core.DictEntry
	// Field is one named member of a Struct value.
	Field = core.Field
	// State is a full inspection snapshot (frames, globals, pause
	// reason); it is what crosses the MI pipe and what traces record.
	State = core.State
)

// Pause reasons (paper Section II-B1).
type (
	// PauseReason describes why and where the inferior paused.
	PauseReason = core.PauseReason
	// PauseReasonType enumerates the pause kinds.
	PauseReasonType = core.PauseReasonType
)

// Abstract type values.
const (
	Primitive = core.Primitive
	Ref       = core.Ref
	List      = core.List
	Dict      = core.Dict
	Struct    = core.Struct
	None      = core.None
	Invalid   = core.Invalid
	Function  = core.Function
)

// Locations.
const (
	LocNowhere  = core.LocNowhere
	LocStack    = core.LocStack
	LocHeap     = core.LocHeap
	LocGlobal   = core.LocGlobal
	LocRegister = core.LocRegister
)

// Pause reason types.
const (
	PauseNone       = core.PauseNone
	PauseEntry      = core.PauseEntry
	PauseStep       = core.PauseStep
	PauseBreakpoint = core.PauseBreakpoint
	PauseWatch      = core.PauseWatch
	PauseCall       = core.PauseCall
	PauseReturn     = core.PauseReturn
	PauseExited     = core.PauseExited
	// PauseInterrupted is a supervision pause: Interrupt(), an expired
	// WithExecutionTimeout deadline, or a tripped WithBudgets resource
	// budget stopped the run; PauseReason.Detail names which.
	PauseInterrupted = core.PauseInterrupted
)

// Options for LoadProgram and breakpoints.
type (
	// LoadOption customizes LoadProgram.
	LoadOption = core.LoadOption
	// BreakOption customizes breakpoint placement.
	BreakOption = core.BreakOption
)

// Load options.
var (
	// WithArgs sets the inferior's argv.
	WithArgs = core.WithArgs
	// WithStdout routes the inferior's standard output.
	WithStdout = core.WithStdout
	// WithStderr routes the inferior's standard error.
	WithStderr = core.WithStderr
	// WithStdin provides the inferior's standard input.
	WithStdin = core.WithStdin
	// WithHeapTracking enables allocator interposition (compiled
	// inferiors), so heap pointers expand to full arrays on inspection.
	WithHeapTracking = core.WithHeapTracking
	// WithSource supplies program text in memory.
	WithSource = core.WithSource
	// WithMaxDepth restricts a breakpoint to frame depths below d.
	WithMaxDepth = core.WithMaxDepth
	// When makes a probe conditional: it fires only when the query
	// expression (see internal/query; e.g. `n > 10 && depth < 5`)
	// evaluates true at the probe site. Alias of WithCondition.
	When = core.WithCondition
	// WithCondition makes a probe conditional on a query expression.
	WithCondition = core.WithCondition
	// WithIgnoreHits skips the first n matching hits of a probe.
	WithIgnoreHits = core.WithIgnoreHits
	// WithOneShot disarms a probe after its first report.
	WithOneShot = core.WithOneShot
	// WithCommandTimeout bounds every debugger round trip (MiniGDB
	// tracker): a command with no complete response within the deadline
	// fails with ErrCommandTimeout and the session layer restarts the
	// debugger instead of blocking the tool forever.
	WithCommandTimeout = core.WithCommandTimeout
	// WithRedialPolicy sets the remote client's reconnect policy for the
	// session being loaded (ignored by local trackers): how many dial
	// attempts per outage, the backoff curve between them, the total
	// wall-clock budget, and how many separate outages one session may
	// survive. See RedialPolicy and DefaultRedialPolicy.
	WithRedialPolicy = core.WithRedialPolicy
	// WithObservability enables the tracker's instrumentation — op
	// counters, latency histograms, gauges and the flight recorder — read
	// back with Stats. Off by default and near-free when off.
	WithObservability = core.WithObservability
	// WithFlightRecorder sizes the flight recorder (an ObsOption for
	// WithObservability) to retain the last n events.
	WithFlightRecorder = core.WithFlightRecorder
	// WithExecutionTimeout bounds the inferior's run time per resuming
	// call (Start/Resume/Step/Next): when the deadline expires the run is
	// interrupted and pauses with PauseInterrupted (Detail "deadline"),
	// fully inspectable — a runaway loop becomes a normal pause, not a
	// hung tool or a torn-down session.
	WithExecutionTimeout = core.WithExecutionTimeout
	// WithBudgets caps the inferior's resource usage (steps, recursion
	// depth, live heap objects, instructions); a tripped budget pauses
	// with PauseInterrupted and a Detail naming the budget.
	WithBudgets = core.WithBudgets
	// WithRecording records the inferior's execution as it runs (per-step
	// state deltas plus periodic checkpoints), enabling the TimeTraveler
	// and ReverseWatcher capabilities on live trackers. The argument is
	// the checkpoint interval in steps; 0 picks an adaptive policy with
	// O(sqrt n) seek cost. Trace replays are recordings already and need
	// no option.
	WithRecording = core.WithRecording
)

// Budgets is the resource-budget set for WithBudgets; zero fields are
// unlimited.
type Budgets = core.Budgets

// Extension interfaces implemented by the MiniGDB tracker only (the paper's
// get_registers_gdb / get_value_at_gdb), plus the full-snapshot interface
// both live trackers and the trace replayer provide. Access them through
// Capabilities and As rather than raw type asserts.
type (
	// RegisterInspector exposes machine registers.
	RegisterInspector = core.RegisterInspector
	// MemoryInspector exposes raw memory and segment maps.
	MemoryInspector = core.MemoryInspector
	// HeapInspector exposes the live heap-allocation map.
	HeapInspector = core.HeapInspector
	// StateProvider exposes the full inspection snapshot in one call.
	StateProvider = core.StateProvider
	// Segment describes one mapped memory region.
	Segment = core.Segment
	// CapabilitySet reports which extension interfaces a tracker has.
	CapabilitySet = core.CapabilitySet
	// Interrupter is the supervision capability: Interrupt() asks a
	// running inferior to pause. Both live trackers implement it; so does
	// AsyncTracker.
	Interrupter = core.Interrupter
	// ConditionalBreaker is the capability interface of trackers that
	// evaluate probe conditions at the probe site (Capabilities(tr)
	// .ConditionalBreak).
	ConditionalBreaker = core.ConditionalBreaker
	// TimeTraveler is the time-travel capability: sessions that record
	// execution (trace replays always; live trackers loaded with
	// WithRecording) can step backwards, run backwards to the previous
	// probe hit, and seek to any recorded step. Reverse navigation rewinds
	// inspection only — a live inferior never re-executes.
	TimeTraveler = core.TimeTraveler
	// ReverseWatcher is the reverse-watchpoint capability: LastChange
	// answers "when did this variable last change?" from the recording's
	// write index, without scanning states backwards.
	ReverseWatcher = core.ReverseWatcher
	// VarChange is one recorded variable mutation, as reported by
	// ReverseWatcher.LastChange.
	VarChange = core.VarChange
)

// Probes: the unified arming surface. Every breakpoint, watchpoint and
// tracked function is one Probe — a kind, a target and a shared option set
// (condition, ignore count, one-shot, maxdepth) — armed with Tracker.Arm.
// BreakBeforeLine/BreakBeforeFunc/TrackFunction/Watch remain as thin
// wrappers over the corresponding probe constructors.
type (
	// Probe is one typed arming request.
	Probe = core.Probe
	// ProbeKind discriminates line/function/watch/track probes.
	ProbeKind = core.ProbeKind
)

// Probe kinds.
const (
	ProbeLine  = core.ProbeLine
	ProbeFunc  = core.ProbeFunc
	ProbeWatch = core.ProbeWatch
	ProbeTrack = core.ProbeTrack
)

// Probe constructors.
var (
	// LineProbe builds a line-breakpoint probe for Arm.
	LineProbe = core.LineProbe
	// FuncProbe builds a function-breakpoint probe for Arm.
	FuncProbe = core.FuncProbe
	// WatchProbe builds a watchpoint probe for Arm.
	WatchProbe = core.WatchProbe
	// TrackProbe builds a function-tracking probe for Arm.
	TrackProbe = core.TrackProbe
)

// WatchWhen arms a conditional watchpoint: the watch reports a mutation of
// varID only while expr holds at the mutation site.
func WatchWhen(tr Tracker, varID, expr string) error {
	return tr.Arm(core.WatchProbe(varID, core.WithCondition(expr)))
}

// TrackWhen arms conditional function tracking: entries and exits of name
// report only while expr holds (`event == "call"` / `event == "return"`
// distinguish the two sites).
func TrackWhen(tr Tracker, name, expr string) error {
	return tr.Arm(core.TrackProbe(name, core.WithCondition(expr)))
}

// Interrupt asks tr's running inferior to pause at the next opportunity,
// reporting whether tr supports interruption. Safe to call from any
// goroutine — including a signal handler while another goroutine is blocked
// inside Resume; that Resume then returns normally with the tracker paused
// and PauseReason().Type == PauseInterrupted.
func Interrupt(tr Tracker) bool {
	in, ok := core.As[core.Interrupter](tr)
	if ok {
		in.Interrupt()
	}
	return ok
}

// Time travel helpers: typed accessors over the TimeTraveler and
// ReverseWatcher capabilities, so the common "rewind if you can" flows read
// as one call. Each returns ErrUnsupported (wrapped) when tr has no
// recording to navigate.

// errNoTimeTravel builds the failure for a tracker without the capability.
func errNoTimeTravel(op string) error {
	return core.WrapErr("easytracker", op, "", 0, core.ErrUnsupported)
}

// StepBack rewinds tr's inspection one recorded step.
func StepBack(tr Tracker) error {
	if tt, ok := core.As[core.TimeTraveler](tr); ok {
		return tt.StepBack()
	}
	return errNoTimeTravel("StepBack")
}

// ResumeBack runs tr's inspection backwards to the previous probe hit
// (breakpoint, watchpoint, tracked function), or to the recording's start.
func ResumeBack(tr Tracker) error {
	if tt, ok := core.As[core.TimeTraveler](tr); ok {
		return tt.ResumeBack()
	}
	return errNoTimeTravel("ResumeBack")
}

// NextBack rewinds one step at the current frame depth or above, skipping
// the inside of calls — Next, mirrored.
func NextBack(tr Tracker) error {
	if tt, ok := core.As[core.TimeTraveler](tr); ok {
		return tt.NextBack()
	}
	return errNoTimeTravel("NextBack")
}

// SeekTo jumps tr's inspection to recorded step n (0 is the entry pause).
func SeekTo(tr Tracker, n int) error {
	if tt, ok := core.As[core.TimeTraveler](tr); ok {
		return tt.SeekTo(n)
	}
	return errNoTimeTravel("SeekTo")
}

// ReplayPos reports tr's position in its recording — the current step index
// and the number of recorded steps. ok is false when tr records nothing.
func ReplayPos(tr Tracker) (pos, length int, ok bool) {
	tt, ok := core.As[core.TimeTraveler](tr)
	if !ok {
		return 0, 0, false
	}
	return tt.Pos(), tt.Len(), true
}

// LastChange answers the reverse watchpoint "when did varID last change
// before now?" from tr's recording.
func LastChange(tr Tracker, varID string) (*VarChange, error) {
	if rw, ok := core.As[core.ReverseWatcher](tr); ok {
		return rw.LastChange(varID)
	}
	return nil, errNoTimeTravel("LastChange")
}

// Capabilities probes a tracker for its optional extension interfaces, so
// tools can adapt or refuse early with a clear message:
//
//	caps := easytracker.Capabilities(tr)
//	if !caps.Registers { ... }
func Capabilities(tr Tracker) CapabilitySet { return core.CapabilitiesOf(tr) }

// As returns tr viewed as the extension interface T — the typed accessor
// that replaces raw type asserts on trackers:
//
//	regs, ok := easytracker.As[easytracker.RegisterInspector](tr)
func As[T any](tr Tracker) (T, bool) { return core.As[T](tr) }

// Errors shared by all trackers.
var (
	ErrNoProgram       = core.ErrNoProgram
	ErrNotStarted      = core.ErrNotStarted
	ErrExited          = core.ErrExited
	ErrUnknownVariable = core.ErrUnknownVariable
	ErrUnknownFunction = core.ErrUnknownFunction
	ErrBadLine         = core.ErrBadLine
	ErrUnsupported     = core.ErrUnsupported
	// ErrBadQuery classifies a probe condition or trace query that failed
	// to lex, parse or type-check; the wrapping error quotes the position.
	ErrBadQuery = core.ErrBadQuery
	// ErrCommandTimeout and ErrSessionLost classify debugger session
	// failures (hung command, crashed or corrupted connection).
	ErrCommandTimeout = core.ErrCommandTimeout
	ErrSessionLost    = core.ErrSessionLost
	// ErrInferiorCrash classifies an inferior that died of an internal
	// fault (an interpreter panic) rather than exiting; the TrackerError
	// wrapping it carries the inferior-language backtrace.
	ErrInferiorCrash = core.ErrInferiorCrash
	// ErrServerBusy and ErrServerDraining classify a remote server's
	// admission refusals (session limit reached; graceful shutdown in
	// progress). Both may carry a retry-after hint (RetryAfterError) that
	// the client's redial policy honors.
	ErrServerBusy     = core.ErrServerBusy
	ErrServerDraining = core.ErrServerDraining
)

// Typed errors: every tracker method reports failures as a *TrackerError
// carrying the operation, tracker kind, source position and — for session
// failures — the recovery outcome. errors.Is against the sentinels above
// sees through it.
type (
	// TrackerError is the structured error returned by tracker methods.
	TrackerError = core.TrackerError
	// RecoveryStatus reports what the session layer did about a failure.
	RecoveryStatus = core.RecoveryStatus
	// RetryAfterError decorates a retryable server refusal with the
	// server's suggested wait before the next attempt.
	RetryAfterError = core.RetryAfterError
	// RedialPolicy governs the remote client's reconnect loop: capped
	// exponential backoff with jitter, per-outage attempt and wall-clock
	// budgets, and a per-session outage cap. See WithRedialPolicy.
	RedialPolicy = core.RedialPolicy
)

// DefaultRedialPolicy is the reconnect policy used when LoadProgram got no
// WithRedialPolicy option.
func DefaultRedialPolicy() RedialPolicy { return core.DefaultRedialPolicy() }

// Recovery statuses.
const (
	RecoveryNone      = core.RecoveryNone
	RecoveryRestarted = core.RecoveryRestarted
	RecoveryFailed    = core.RecoveryFailed
)

// Asynchronous control helpers (the paper's §V future-work item): control
// commands return immediately and pauses arrive on an event channel.
type (
	// AsyncTracker wraps a Tracker with non-blocking control.
	AsyncTracker = core.AsyncTracker
	// AsyncEvent reports one completed asynchronous command.
	AsyncEvent = core.AsyncEvent
)

// NewAsync wraps a tracker for asynchronous control.
func NewAsync(tr Tracker) *AsyncTracker { return core.NewAsync(tr) }

// Observability: every built-in tracker carries an instrument panel —
// counters, latency histograms per operation, gauges and a flight recorder
// of the most recent tracker/debugger events. Instrumentation is off by
// default (enable with WithObservability); the MiniGDB tracker's flight
// recorder is always on, and its dump rides along in TrackerError.Trail
// when a debugger session is recovered or retired.
type (
	// Snapshot is the JSON-serializable instrument snapshot Stats returns.
	Snapshot = obs.Snapshot
	// LatencyStats summarizes one operation's latency histogram.
	LatencyStats = obs.LatencyStats
	// GaugeStats is a gauge's current value and high watermark.
	GaugeStats = obs.GaugeStats
	// ObsEvent is one flight-recorder entry.
	ObsEvent = obs.Event
	// ObsOption customizes WithObservability.
	ObsOption = core.ObsOption
	// StatsProvider is the capability interface behind Stats.
	StatsProvider = core.StatsProvider
)

// Stats returns tr's instrument snapshot (ok is false when tr has no
// instrument panel; the snapshot is then empty but non-nil):
//
//	snap, _ := easytracker.Stats(tr)
//	json.NewEncoder(os.Stderr).Encode(snap)
func Stats(tr Tracker) (*Snapshot, bool) { return core.StatsOf(tr) }

// Span tracing: where Stats answers "how often and how long on average",
// spans answer "what exactly happened inside THIS slow Resume" — one record
// per completed operation, linked into a tree by 64-bit trace/span/parent
// ids. Enable with WithObservability(WithSpanTracing(n)); across a remote
// session the trace context rides the wire, so the client's call span, the
// server's executor span and the backend's op span share one trace id and
// merge into one timeline (the et-spans tool renders the Chrome trace-event
// format Perfetto and chrome://tracing load directly).
type (
	// SpanRecord is one completed span.
	SpanRecord = obs.SpanRecord
	// SpanContext identifies a span within a trace.
	SpanContext = obs.SpanContext
	// SpanProvider is the capability interface behind Spans.
	SpanProvider = core.SpanProvider
	// SpanDump is one process's span export (what et-serve's /spans
	// endpoint serves).
	SpanDump = spanexport.Dump
)

// WithSpanTracing (an ObsOption for WithObservability) turns on span
// tracing, retaining the last n completed spans (n <= 0 picks the default
// capacity).
var WithSpanTracing = core.WithSpanTracing

// Spans returns tr's retained spans, ordered by start time (ok is false
// when tr records no spans).
func Spans(tr Tracker) ([]SpanRecord, bool) { return core.SpansOf(tr) }

// ExportSpans writes tr's spans as a JSON span dump, the unit et-spans
// merges into a fleet-wide timeline.
func ExportSpans(w io.Writer, proc string, tr Tracker) error {
	spans, _ := Spans(tr)
	return json.NewEncoder(w).Encode(&SpanDump{Proc: proc, Spans: spans})
}

// WriteChromeTrace merges span dumps into one Chrome trace-event document.
func WriteChromeTrace(w io.Writer, dumps ...*SpanDump) error {
	return spanexport.WriteChromeTrace(w, dumps...)
}

// New instantiates a tracker by kind ("minipy", "minigdb", "trace") — the
// paper's init_tracker.
func New(kind string) (Tracker, error) { return core.NewTracker(kind) }

// Kinds lists the registered tracker kinds.
func Kinds() []string { return core.TrackerKinds() }

// KindFor picks the tracker kind for a program path by extension, as the
// paper's Listing 1 does: MiniPy for .py, MiniGDB for everything else
// (.c, .s, .mobj).
func KindFor(path string) string {
	if strings.HasSuffix(path, ".py") {
		return "minipy"
	}
	return "minigdb"
}

// Remote sessions: a tracker server (et-serve) hosts many concurrent tracker
// sessions behind the wire protocol of internal/remote, and Connect returns
// a client Tracker that drives one of them. The remote tracker satisfies the
// same contract as a local one — same pause reasons, same State JSON, same
// typed errors under errors.Is — so tools, AsyncTracker and the capability
// API work unchanged; a lost connection surfaces through the session-loss
// model (ErrSessionLost, one reconnect-and-replay attempt, RecoveryRestarted
// / RecoveryFailed).
type (
	// RemoteTracker is the client side of a remote tracker session. Beyond
	// the Tracker contract it offers Close (release the connection; Terminate
	// alone keeps it open so Stats stays readable) and Capabilities.
	RemoteTracker = remote.Tracker
	// Server hosts tracker sessions for remote clients.
	Server = remote.Server
	// ServerOption customizes NewServer.
	ServerOption = remote.ServerOption
	// ConnectOption customizes Connect (transport dialer, dial timeout).
	ConnectOption = remote.ConnectOption
)

// Server options.
var (
	// WithMaxSessions caps the number of concurrently live sessions.
	WithMaxSessions = remote.WithMaxSessions
	// WithIdleTimeout evicts sessions idle longer than d.
	WithIdleTimeout = remote.WithIdleTimeout
	// WithSessionBudgets caps every session's resource budgets (tenant
	// isolation: the effective budgets are the tighter of the client's and
	// the server's).
	WithSessionBudgets = remote.WithSessionBudgets
	// WithSessionExecTimeout caps every session's execution timeout.
	WithSessionExecTimeout = remote.WithSessionExecTimeout
	// WithRecordingDisabled drops clients' time-travel recording requests
	// (tenant policy: recordings grow server memory per step); affected
	// sessions advertise TimeTravel off and clients degrade gracefully.
	WithRecordingDisabled = remote.WithRecordingDisabled
	// WithServerLog routes the server's diagnostic log lines.
	WithServerLog = remote.WithLogf
	// WithHeartbeat arms liveness heartbeats: clients ping every interval,
	// and a connection totally silent for misses intervals is evicted even
	// mid-command (silence from a beating client means the wire is dead).
	WithHeartbeat = remote.WithHeartbeat
	// WithRetryAfterHint attaches a retry-after hint to admission refusals
	// so policy-driven clients back off by the operator's chosen amount.
	WithRetryAfterHint = remote.WithRetryAfterHint
)

// Client connect options.
var (
	// WithDialer replaces the remote client's transport dialer — the seam
	// tests and chaos harnesses plug a virtual network into.
	WithDialer = remote.WithDialer
	// WithDialTimeout bounds each dial plus hello handshake, for Connect
	// and for every redial attempt.
	WithDialTimeout = remote.WithDialTimeout
)

// Connect dials a tracker server and opens one session of the given backend
// kind ("minipy", "minigdb", "trace"):
//
//	tr, err := easytracker.Connect("localhost:7070", "minipy")
//	...
//	tr.LoadProgram("prog.py")
func Connect(addr, kind string, opts ...ConnectOption) (*RemoteTracker, error) {
	return remote.Connect(addr, kind, opts...)
}

// NewServer builds a tracker server; run it with Serve/ListenAndServe and
// stop it with Shutdown (graceful drain) or Close.
func NewServer(opts ...ServerOption) *Server { return remote.NewServer(opts...) }
