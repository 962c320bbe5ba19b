package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sentinel errors shared by all trackers.
var (
	// ErrNoProgram is returned by control and inspection calls made
	// before LoadProgram.
	ErrNoProgram = errors.New("easytracker: no program loaded")
	// ErrNotStarted is returned by calls that require Start first.
	ErrNotStarted = errors.New("easytracker: inferior not started")
	// ErrExited is returned by control calls after the inferior exited.
	ErrExited = errors.New("easytracker: inferior has exited")
	// ErrUnknownVariable is returned by Watch for an unresolvable
	// variable identifier.
	ErrUnknownVariable = errors.New("easytracker: unknown variable")
	// ErrUnknownFunction is returned for breakpoints or tracking on an
	// unknown function.
	ErrUnknownFunction = errors.New("easytracker: unknown function")
	// ErrBadLine is returned for a breakpoint on a line that holds no
	// executable code.
	ErrBadLine = errors.New("easytracker: no code at line")
	// ErrUnsupported is returned by tracker-specific extensions invoked
	// on a tracker that does not provide them.
	ErrUnsupported = errors.New("easytracker: operation not supported by this tracker")
	// ErrBadQuery is returned by probe-arming calls whose WithCondition
	// expression fails to compile or type-check, and by trace-query tools
	// for a malformed query. The wrapped error carries the position and
	// cause of the compile failure.
	ErrBadQuery = errors.New("easytracker: invalid query expression")
)

// LoadConfig carries the options of LoadProgram.
type LoadConfig struct {
	// Args are the inferior's command-line arguments.
	Args []string
	// Stdout and Stderr receive the inferior's output; nil discards it.
	Stdout io.Writer
	Stderr io.Writer
	// Stdin provides the inferior's input; nil means empty input.
	Stdin io.Reader
	// TrackHeap enables allocator interposition so the tracker maintains
	// a map of live heap blocks and their sizes (the paper's LD_PRELOAD
	// shim). Only meaningful for compiled inferiors.
	TrackHeap bool
	// Source optionally supplies the program text directly instead of
	// reading the file at the path given to LoadProgram. The path is
	// still used as the file name in positions and diagnostics.
	Source string
	// CommandTimeout bounds each debugger round trip for trackers that
	// drive a debugger over a pipe; see WithCommandTimeout.
	CommandTimeout time.Duration
	// ExecTimeout bounds the wall-clock time of each execution-resuming
	// call; see WithExecutionTimeout.
	ExecTimeout time.Duration
	// Budgets are the inferior's resource budgets; see WithBudgets.
	Budgets Budgets
	// Obs configures the tracker's instrumentation; see WithObservability.
	Obs ObsConfig
	// Redial configures the remote client's reconnect loop; nil means the
	// default policy. See WithRedialPolicy. Local trackers ignore it.
	Redial *RedialPolicy
	// Recording enables live omniscient recording: every trace event is
	// captured as a state delta (plus periodic checkpoints), so the session
	// becomes navigable backwards through the TimeTraveler capability. See
	// WithRecording. Ignored by trackers that cannot record.
	Recording bool
	// RecordInterval is the checkpoint interval of the recording in steps;
	// 0 picks the adaptive policy (checkpoint spacing grows with the trace,
	// keeping seek cost O(sqrt n)).
	RecordInterval int
}

// LoadOption customizes LoadProgram.
type LoadOption func(*LoadConfig)

// WithArgs sets the inferior's argv (excluding argv[0]).
func WithArgs(args ...string) LoadOption {
	return func(c *LoadConfig) { c.Args = args }
}

// WithStdout routes the inferior's standard output to w.
func WithStdout(w io.Writer) LoadOption {
	return func(c *LoadConfig) { c.Stdout = w }
}

// WithStderr routes the inferior's standard error to w.
func WithStderr(w io.Writer) LoadOption {
	return func(c *LoadConfig) { c.Stderr = w }
}

// WithStdin provides the inferior's standard input.
func WithStdin(r io.Reader) LoadOption {
	return func(c *LoadConfig) { c.Stdin = r }
}

// WithHeapTracking enables allocator interposition (compiled inferiors).
func WithHeapTracking() LoadOption {
	return func(c *LoadConfig) { c.TrackHeap = true }
}

// WithSource supplies the program text in memory; the LoadProgram path is
// used only as a display name.
func WithSource(src string) LoadOption {
	return func(c *LoadConfig) { c.Source = src }
}

// WithRecording enables live omniscient recording on trackers that support
// it: the session records every executed step as a delta-encoded trace with
// a full-state checkpoint every interval steps (interval <= 0 picks the
// adaptive O(sqrt n) policy), and the TimeTraveler capability — StepBack,
// SeekTo, reverse watches — becomes available post-hoc on the live session.
func WithRecording(interval int) LoadOption {
	return func(c *LoadConfig) {
		c.Recording = true
		c.RecordInterval = interval
	}
}

// ApplyLoadOptions folds opts into a LoadConfig.
func ApplyLoadOptions(opts []LoadOption) LoadConfig {
	var c LoadConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// BreakConfig carries the options of the probe-arming calls. Every probe
// kind — line and function breakpoints, watchpoints, tracked functions —
// accepts the same option set (the unified Probe surface).
type BreakConfig struct {
	// MaxDepth, when positive, restricts the breakpoint to fire only when
	// the current frame depth (entry frame = depth 0) is strictly below
	// the given value — the paper's maxdepth semantic.
	MaxDepth int
	// Condition is a query-language expression (internal/query, e.g.
	// `x > 10 && function == "fib"`) evaluated on every candidate hit;
	// the probe pauses only when the condition matches. The empty string
	// is the always-true condition. A condition that fails to compile
	// surfaces as ErrBadQuery from the arming call.
	Condition string
	// IgnoreHits suppresses the first n hits that pass the condition
	// (GDB's ignore count).
	IgnoreHits int
	// OneShot disarms the probe after its first reported hit (GDB's
	// temporary breakpoint).
	OneShot bool
}

// BreakOption customizes probe placement (BreakBeforeLine, BreakBeforeFunc,
// TrackFunction, Watch, and Arm).
type BreakOption func(*BreakConfig)

// WithMaxDepth restricts a breakpoint to frame depths below d.
func WithMaxDepth(d int) BreakOption {
	return func(c *BreakConfig) { c.MaxDepth = d }
}

// WithCondition attaches a query-language condition to a probe: the probe
// pauses the inferior only on hits where expr evaluates to true. The public
// facade re-exports this as easytracker.When.
func WithCondition(expr string) BreakOption {
	return func(c *BreakConfig) { c.Condition = expr }
}

// WithIgnoreHits suppresses the first n condition-passing hits of a probe.
func WithIgnoreHits(n int) BreakOption {
	return func(c *BreakConfig) { c.IgnoreHits = n }
}

// WithOneShot disarms the probe after its first reported hit.
func WithOneShot() BreakOption {
	return func(c *BreakConfig) { c.OneShot = true }
}

// ApplyBreakOptions folds opts into a BreakConfig.
func ApplyBreakOptions(opts []BreakOption) BreakConfig {
	var c BreakConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Tracker is the language-agnostic control and inspection interface of
// EasyTracker (paper Section II-B). Control functions return only when the
// inferior is paused or terminated. A Tracker is not safe for concurrent
// use; it is driven by one tool goroutine.
type Tracker interface {
	// LoadProgram loads (and for compiled languages, builds) the program
	// at path. It must be called before any other method.
	LoadProgram(path string, opts ...LoadOption) error

	// Start launches the inferior and pauses it at its entry point.
	Start() error
	// Resume continues execution until the next pause condition
	// (breakpoint, watchpoint, tracked-function boundary) or termination.
	Resume() error
	// Step executes one source line, entering calls (step into).
	Step() error
	// Next executes one source line, skipping over calls (step over).
	Next() error
	// Terminate kills the inferior and releases tracker resources.
	// It is safe to call after the inferior exited on its own.
	Terminate() error

	// Arm installs one probe — the unified arming surface behind the
	// four convenience methods below. Every probe kind accepts the same
	// option set: maxdepth, a query-language condition, an ignore count
	// and one-shot disarming.
	Arm(p Probe) error

	// BreakBeforeLine pauses the inferior just before the given source
	// line executes. The empty file means the main program file.
	// Equivalent to Arm(LineProbe(file, line, opts...)).
	BreakBeforeLine(file string, line int, opts ...BreakOption) error
	// BreakBeforeFunc pauses the inferior just before the named function
	// begins executing, with arguments initialized and inspectable.
	// Equivalent to Arm(FuncProbe(name, opts...)).
	BreakBeforeFunc(name string, opts ...BreakOption) error
	// TrackFunction pauses the inferior at the beginning (just after
	// entering) and at the end (just before returning) of every
	// execution of the named function.
	// Equivalent to Arm(TrackProbe(name, opts...)).
	TrackFunction(name string, opts ...BreakOption) error
	// Watch pauses the inferior every time the variable identified by
	// varID is modified. Identifiers are "name" (searched in the current
	// scope chain), "func:name" (local of func) or "::name" (global).
	// Equivalent to Arm(WatchProbe(varID, opts...)).
	Watch(varID string, opts ...BreakOption) error

	// PauseReason reports why the inferior is currently paused.
	PauseReason() PauseReason
	// ExitCode returns the inferior's exit status; ok is false while the
	// inferior has not terminated (the paper's get_exit_code() is None).
	ExitCode() (code int, ok bool)
	// CurrentFrame returns the innermost frame of the paused inferior,
	// linked to its callers via Parent.
	CurrentFrame() (*Frame, error)
	// GlobalVariables returns the program's global variables.
	GlobalVariables() ([]*Variable, error)
	// Position returns the source position of the next line to execute.
	Position() (file string, line int)
	// LastLine returns the line that finished executing most recently,
	// or zero at entry (Listing 6's last_lineno).
	LastLine() int
	// SourceLines returns the inferior's main source file, split into
	// lines, for tools that render the program listing.
	SourceLines() ([]string, error)
}

// RegisterInspector is implemented by trackers that expose machine
// registers (the paper's get_registers_gdb, MiniGDB tracker only).
type RegisterInspector interface {
	// Registers returns the register file as name -> value.
	Registers() (map[string]uint64, error)
}

// MemoryInspector is implemented by trackers that expose raw memory (the
// paper's get_value_at_gdb, MiniGDB tracker only).
type MemoryInspector interface {
	// ValueAt reads size bytes of inferior memory at addr.
	ValueAt(addr uint64, size int) ([]byte, error)
	// MemorySegments describes the mapped regions as (name, start, size)
	// triples so viewers can render memory as a one-dimensional array.
	MemorySegments() []Segment
}

// Segment describes one mapped memory region of a compiled inferior.
type Segment struct {
	Name  string
	Start uint64
	Size  uint64
}

// HeapInspector is implemented by trackers that maintain the interposed
// heap block map.
type HeapInspector interface {
	// HeapBlocks returns the live heap allocations as address -> size.
	HeapBlocks() (map[uint64]uint64, error)
}

// Factory builds a fresh tracker of one kind.
type Factory func() Tracker

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// RegisterTracker installs a tracker factory under the given kind name
// ("minipy", "minigdb", "trace"). It panics on duplicate registration,
// matching database/sql's driver convention.
func RegisterTracker(kind string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("core: duplicate tracker registration for %q", kind))
	}
	registry[kind] = f
}

// NewTracker instantiates a tracker by kind. This is the init_tracker
// analog of the paper's Listing 1.
func NewTracker(kind string) (Tracker, error) {
	registryMu.RLock()
	f, ok := registry[kind]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("easytracker: unknown tracker kind %q (registered: %s)",
			kind, strings.Join(TrackerKinds(), ", "))
	}
	return f(), nil
}

// TrackerKinds lists the registered tracker kinds, sorted.
func TrackerKinds() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	kinds := make([]string, 0, len(registry))
	for k := range registry {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
