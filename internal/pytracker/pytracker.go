// Package pytracker implements the EasyTracker Tracker interface for MiniPy
// inferiors, reproducing the paper's Python tracker (Section II-C2): the
// inferior runs in its own goroutine (the paper's thread), the interpreter's
// trace hook is the control point, and control functions performed by the
// tool goroutine block until the inferior pauses again. Watchpoints are
// implemented by comparing watched values before every executed line, so
// resume degrades to internal single-stepping exactly as in the paper.
package pytracker

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"easytracker/internal/core"
	"easytracker/internal/minipy"
	"easytracker/internal/obs"
	"easytracker/internal/query"
	"easytracker/internal/ttd"
)

// Kind is the tracker registry name.
const Kind = "minipy"

func init() {
	core.RegisterTracker(Kind, func() core.Tracker { return New() })
}

var errTerminated = errors.New("pytracker: inferior terminated by tracker")

// Interrupt-flag values: the supervision layer distinguishes an explicit
// Interrupt call from an execution-deadline expiry so the pause Detail can
// say which one ended the run.
const (
	intrNone int32 = iota
	intrUser
	intrDeadline
)

// crashError carries a contained interpreter panic from the inferior
// goroutine to the tool goroutine, with the MiniPy backtrace captured at
// the panic site. Unwrap exposes core.ErrInferiorCrash to errors.Is.
type crashError struct {
	val       any
	backtrace []string
}

func (e *crashError) Error() string {
	return fmt.Sprintf("pytracker: %v: panic: %v", core.ErrInferiorCrash, e.val)
}

func (e *crashError) Unwrap() error { return core.ErrInferiorCrash }

// minipyBacktrace renders the frame chain rooted at fr, innermost first.
// The caller passes the last frame the trace hook saw rather than the
// interpreter's current frame: panic unwinding pops frames on its way out,
// so by recover time the interpreter is already back at the module body.
func minipyBacktrace(fr *minipy.RTFrame) []string {
	var bt []string
	for ; fr != nil; fr = fr.Parent {
		bt = append(bt, fmt.Sprintf("%s at line %d (depth %d)", fr.Name, fr.Line, fr.Depth))
	}
	return bt
}

type stepMode int

const (
	modeRun stepMode = iota
	modeStep
	modeNext
)

// probeCtl is the conditional-arming state shared by every probe kind: a
// compiled condition (nil = always true), the remaining ignore count, and
// the one-shot disarm latch. It is embedded, so checkPause mutates it in
// place through the owning probe.
type probeCtl struct {
	cond       *query.Program
	ignoreLeft int
	oneShot    bool
	disarmed   bool
}

// fire applies the post-condition hit bookkeeping: consume an ignore credit
// (reporting nothing), or report the hit and disarm a one-shot probe.
func (c *probeCtl) fire() bool {
	if c.ignoreLeft > 0 {
		c.ignoreLeft--
		return false
	}
	if c.oneShot {
		c.disarmed = true
	}
	return true
}

type lineBP struct {
	file     string
	line     int
	maxDepth int
	probeCtl
}

type funcBP struct {
	name     string
	maxDepth int
	probeCtl
}

// trackInfo is the per-function state of TrackFunction.
type trackInfo struct {
	probeCtl
}

type watch struct {
	id string
	// scope/name are the two halves of core.SplitVarID(id), split once at
	// Watch registration so the per-line comparison never re-parses the
	// identifier string.
	scope string
	name  string
	// gslot caches the module-scope slot index of a global ("::") watch,
	// and of a bare-name watch's fallback to the globals, once the
	// interpreter has attached its compile-time symtab; -1 means not (yet)
	// resolvable and falls back to the map lookup.
	gslot int
	// evFr, holder and slot cache the frame walk of a "fn:name" or
	// bare-name watch: evFr is the event frame they were resolved against,
	// holder the scope binding the name as seen from it (nil: no frame
	// named fn is live) and slot the name's symtab slot in holder (-1: the
	// name lives in holder's map). An event from evFr reuses them; any
	// other frame re-resolves. Holding evFr is safe: RTFrames are allocated
	// per call and never pooled, so the held pointer cannot alias a later
	// frame, and a frame's Parent chain never changes.
	evFr   *minipy.RTFrame
	holder *minipy.Scope
	slot   int
	// snap is the last observed value snapshot; nil means "not yet
	// observed/defined".
	snap *core.Value
	// lastObj is the object the identifier resolved to when snap was
	// taken, and epoch the interpreter's mutation epoch at that moment.
	// Together they form the O(1) dirty check: the same object with no
	// reachable mutation since epoch cannot have changed, so the deep
	// compare (and its conversion allocations) is skipped.
	lastObj *minipy.Object
	epoch   uint64
	probeCtl
}

type exitInfo struct {
	code int
	err  error
}

// Tracker controls one MiniPy inferior. It is driven by a single tool
// goroutine; the inferior runs in a second goroutine started by Start.
type Tracker struct {
	file     string
	srcLines []string
	module   *minipy.Module
	interp   *minipy.Interp
	cfg      core.LoadConfig

	pauseCh  chan struct{}
	resumeCh chan struct{}
	doneCh   chan exitInfo

	loaded     bool
	started    bool
	exited     bool
	terminated bool
	exitCode   int

	reason    core.PauseReason
	curFrame  *minipy.RTFrame
	prevLine  int
	lastLine  int
	entrySeen bool

	// crashFr is the frame of the most recent trace event, recorded so
	// the crash-containment barrier can render a backtrace rooted at the
	// panic site (unwinding pops the interpreter's own frame chain before
	// recover runs). Written and read only on the inferior goroutine.
	crashFr *minipy.RTFrame

	mode      stepMode
	nextDepth int
	lineBPs   []lineBP
	funcBPs   []funcBP
	tracked   map[string]*trackInfo
	watches   []*watch

	// view is the reusable EventView handed to condition programs; holding
	// it by value keeps conditional evaluation allocation-free.
	view pyView

	// intr is the cooperative interrupt flag (intrNone/intrUser/
	// intrDeadline). It is the only tracker field touched from outside the
	// tool goroutine: Interrupt() and the deadline timer raise it, the
	// trace hook consumes it. budgets/supervised configure the per-event
	// resource checks; the *Tripped latches make each budget one-shot, so
	// an inspected-and-resumed inferior is not re-paused on every
	// subsequent line by the budget it already tripped.
	intr         atomic.Int32
	budgets      core.Budgets
	supervised   bool
	stepsTripped bool
	depthTripped bool
	heapTripped  bool

	// pauseSeq numbers pauses; together with the interpreter's mutation
	// epoch it keys the memoized State snapshot below, so tools calling
	// CurrentFrame, GlobalVariables and State in the same pause convert
	// the program state once instead of three times. The epoch part
	// invalidates the cache if a tool mutates state mid-pause (e.g. by
	// evaluating a call through the interpreter).
	pauseSeq  uint64
	snapSeq   uint64
	snapEpoch uint64
	snapState *core.State
	// conv is the session converter behind State: each snapshot is built
	// as an update of the previous one, so unchanged values, variables
	// and frames are shared between States (DESIGN.md §19). Watch,
	// return-value and recorder conversions keep one-shot converters:
	// they share a document with these values or rewrite what they hold.
	conv *minipy.Converter

	// obs is the tracker's instrument panel, nil unless WithObservability
	// was given: unlike gdbtracker there is no session layer needing a
	// black box, and the trace hook runs on every executed line, so even
	// the always-on flight recorder would tax the default path. All obs
	// methods are nil-safe, so the off cost is one pointer test. The
	// counters touched per line are cached to skip the registry lookup.
	obs          *obs.Metrics
	ctrLines     *obs.Counter
	ctrPauses    *obs.Counter
	ctrWatchHits *obs.Counter
	ctrSnapHit   *obs.Counter
	ctrSnapMiss  *obs.Counter

	// tracer records one span per tracker op when span tracing is on
	// (WithSpanTracing or an embedder's span sink); nil otherwise, costing
	// one pointer test per op — the per-line hot path never touches it.
	tracer *obs.Tracer

	// rec is the live omniscient recorder, nil unless WithRecording was
	// given: the off cost in the trace hook is one pointer test
	// (BenchmarkRecordingOverheadOff gates it). recFr/recEpoch key the
	// snapshot-free fast path; recOut tees the inferior's stdout so steps
	// carry output deltas; recErr latches the first recording failure.
	// replay is the time-travel cursor into the recording (-1 = live);
	// liveReason/liveLast stash the present-moment pause bookkeeping while
	// inspection is rewound. See recording.go.
	rec        *ttd.Recorder
	recErr     error
	recOut     *recordTee
	recFr      *minipy.RTFrame
	recEpoch   uint64
	replay     int
	liveReason core.PauseReason
	liveLast   int
}

// New returns an unloaded MiniPy tracker.
func New() *Tracker {
	return &Tracker{
		pauseCh:  make(chan struct{}),
		resumeCh: make(chan struct{}),
		doneCh:   make(chan exitInfo, 1),
		tracked:  map[string]*trackInfo{},
	}
}

// LoadProgram parses the MiniPy program at path (or the source provided via
// core.WithSource) and prepares the interpreter.
func (t *Tracker) LoadProgram(path string, opts ...core.LoadOption) error {
	cfg := core.ApplyLoadOptions(opts)
	src := cfg.Source
	if src == "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("pytracker: %w", err)
		}
		src = string(data)
	}
	mod, err := minipy.Parse(path, src)
	if err != nil {
		return err
	}
	in := minipy.NewInterp(mod)
	in.SetStdout(cfg.Stdout)
	in.SetStderr(cfg.Stderr)
	in.SetStdin(cfg.Stdin)
	if cfg.Args != nil {
		in.SetArgs(cfg.Args)
	}
	if cfg.ASTInterpreter {
		in.SetEngine(minipy.EngineAST)
	}
	in.SetTrace(t.traceFn)
	t.file = path
	t.conv = nil
	if cfg.Recording {
		t.initRecording(in, cfg, path, src)
	}
	t.srcLines = strings.Split(strings.TrimRight(src, "\n"), "\n")
	t.module = mod
	t.interp = in
	t.cfg = cfg
	t.budgets = cfg.Budgets
	t.supervised = t.budgets.MaxSteps > 0 || t.budgets.MaxDepth > 0 ||
		t.budgets.MaxHeapObjects > 0
	t.initObs()
	t.loaded = true
	return nil
}

// initObs builds the instrument panel when observability was requested; the
// tracker keeps a nil panel otherwise so the per-line hot path pays nothing.
// The span tracer is independent of the metric panel: spans answer "what
// happened inside this op", metrics "how often and how long on average".
func (t *Tracker) initObs() {
	if sink := t.cfg.Obs.SpanSink; sink != nil {
		t.tracer = obs.NewTracerOn(Kind, sink)
	} else if t.cfg.Obs.Spans > 0 {
		t.tracer = obs.NewTracer(Kind, t.cfg.Obs.Spans)
	}
	if !t.cfg.Obs.Enabled {
		return
	}
	events := t.cfg.Obs.Events
	if events <= 0 {
		events = obs.DefaultEvents
	}
	t.obs = obs.New(obs.Config{Enabled: true, Events: events})
	t.ctrLines = t.obs.Counter(core.CtrLinesTraced)
	t.ctrPauses = t.obs.Counter(core.CtrPauses)
	t.ctrWatchHits = t.obs.Counter(core.CtrWatchHits)
	t.ctrSnapHit = t.obs.Counter(core.CtrSnapshotHits)
	t.ctrSnapMiss = t.obs.Counter(core.CtrSnapshotMisses)
}

// Stats implements core.StatsProvider.
func (t *Tracker) Stats() *obs.Snapshot {
	s := t.obs.Snapshot()
	s.Tracker = Kind
	return s
}

// ObsMetrics implements core.MetricsSource, letting wrappers (AsyncTracker)
// report into the same panel; nil when observability is off.
func (t *Tracker) ObsMetrics() *obs.Metrics { return t.obs }

// Spans implements core.SpanProvider; nil when span tracing is off.
func (t *Tracker) Spans() []obs.SpanRecord { return t.tracer.Spans() }

// SpanTracer implements core.SpanTracerSource; nil when span tracing is off.
func (t *Tracker) SpanTracer() *obs.Tracer { return t.tracer }

// Start launches the inferior goroutine and pauses at the entry point (the
// first executable line of the module).
func (t *Tracker) Start() error {
	if !t.loaded {
		return t.werr("Start", core.ErrNoProgram)
	}
	if t.started {
		return t.werr("Start", errors.New("pytracker: already started"))
	}
	t.started = true
	sp := t.tracer.StartOp(core.OpStart)
	t0 := t.obs.Now()
	stop := t.armDeadline()
	go func() {
		// Containment barrier: an interpreter panic must surface to the
		// tool as a typed inferior-crash error, not kill the host. The
		// backtrace is captured here, on the inferior goroutine, while
		// the frame chain is still rooted at the panic site.
		defer func() {
			if r := recover(); r != nil {
				fr := t.crashFr
				if fr == nil {
					fr = t.interp.CurrentFrame()
				}
				t.doneCh <- exitInfo{code: 2, err: &crashError{
					val:       r,
					backtrace: minipyBacktrace(fr),
				}}
			}
		}()
		code, err := t.interp.Run()
		t.doneCh <- exitInfo{code, err}
	}()
	err := t.waitPause()
	stop()
	t.obs.Observe(core.OpStart, t0)
	sp.EndErr(err)
	return t.werr("Start", err)
}

// Interrupt implements core.Interrupter: it asks the running inferior to
// pause at its next trace event, converting the in-flight control command
// into a normal INTERRUPTED pause with full State() available. The flag is
// sticky — interrupting a paused inferior makes the next resuming call
// pause immediately — so an interrupt is never lost to a pause race. Safe
// to call from any goroutine.
func (t *Tracker) Interrupt() {
	t.intr.Store(intrUser)
}

// armDeadline starts the WithExecutionTimeout clock for one resuming call
// and returns the disarm func. Expiry raises a deadline interrupt unless an
// interrupt is already pending; disarming clears a deadline that fired too
// late to be delivered (the run paused for another reason first), so it
// cannot leak into the next resume.
func (t *Tracker) armDeadline() func() {
	d := t.cfg.ExecTimeout
	if d <= 0 {
		return func() {}
	}
	timer := time.AfterFunc(d, func() { t.intr.CompareAndSwap(intrNone, intrDeadline) })
	return func() {
		timer.Stop()
		t.intr.CompareAndSwap(intrDeadline, intrNone)
	}
}

// traceFn runs in the inferior goroutine between every event. It is the
// hottest code in the tracker — every executed line funnels through it — so
// the pause checks below return a bare bool and build the PauseReason (by
// storing it into t.reason) only on the rare event that actually pauses.
func (t *Tracker) traceFn(fr *minipy.RTFrame, ev minipy.Event, ret *minipy.Object) error {
	if t.terminated {
		return errTerminated
	}
	t.crashFr = fr
	// Recording first, so every event lands in the recording exactly once
	// regardless of what the pause logic below decides. Off costs one
	// pointer test.
	if t.rec != nil {
		t.recordEvent(fr, ev, ret)
	}
	// Supervision next: the interrupt-flag load is the only mandatory
	// per-event cost; the budget comparisons run only when armed.
	pause := false
	if t.intr.Load() != intrNone || t.supervised {
		pause = t.superviseCheck(fr)
	}
	if !pause {
		pause = t.checkPause(fr, ev, ret)
	}
	if ev == minipy.EventLine {
		t.lastLine = t.prevLine
		t.prevLine = fr.Line
		if t.ctrLines != nil {
			t.ctrLines.Inc()
		}
	}
	if !pause {
		return nil
	}
	t.curFrame = fr
	t.mode = modeRun
	t.pauseCh <- struct{}{}
	<-t.resumeCh
	if t.terminated {
		return errTerminated
	}
	return nil
}

// superviseCheck runs the supervision layer's per-event checks, ahead of
// every other pause condition: the cooperative interrupt flag first, then
// the armed resource budgets. This is the hot path of the supervision
// layer and must stay allocation-free: one atomic load when idle, a few
// integer compares when budgets are armed (BenchmarkBudgetCheckOverhead
// gates this). A supervision pause does not run the watch comparison, so
// watch snapshots stay coherent: a mutation landing on the interrupted
// event is detected by the next regular check.
func (t *Tracker) superviseCheck(fr *minipy.RTFrame) bool {
	if t.intr.Load() != intrNone {
		detail := "interrupt"
		if t.intr.Swap(intrNone) == intrDeadline {
			detail = "deadline"
		}
		t.obs.Counter(core.CtrInterrupts).Inc()
		t.obs.Event("interrupt", "run interrupted ("+detail+")")
		t.interruptedAt(fr, detail)
		return true
	}
	if !t.supervised {
		return false
	}
	if b := t.budgets.MaxSteps; b > 0 && !t.stepsTripped && t.interp.Steps() >= b {
		t.stepsTripped = true
		return t.tripBudget(fr, "step-budget", b)
	}
	if b := t.budgets.MaxDepth; b > 0 && !t.depthTripped && fr.Depth >= b {
		t.depthTripped = true
		return t.tripBudget(fr, "depth-budget", int64(b))
	}
	if b := t.budgets.MaxHeapObjects; b > 0 && !t.heapTripped && t.interp.AllocCount() >= b {
		t.heapTripped = true
		return t.tripBudget(fr, "heap-budget", b)
	}
	return false
}

// tripBudget records one budget expiry (cold path) and builds its pause.
func (t *Tracker) tripBudget(fr *minipy.RTFrame, name string, limit int64) bool {
	t.obs.Counter(core.CtrBudgetTrips).Inc()
	t.obs.Event("budget", fmt.Sprintf("%s tripped (limit %d) at line %d", name, limit, fr.Line))
	t.interruptedAt(fr, name)
	return true
}

func (t *Tracker) interruptedAt(fr *minipy.RTFrame, detail string) {
	t.reason = core.PauseReason{
		Type: core.PauseInterrupted, File: t.file, Line: fr.Line, Detail: detail,
	}
}

// checkPause applies, in priority order, the paper's pause conditions:
// watchpoint, tracked-function boundary, breakpoint, then single-stepping.
// On a hit it stores the pause into t.reason and reports true.
func (t *Tracker) checkPause(fr *minipy.RTFrame, ev minipy.Event, ret *minipy.Object) bool {
	// 1. Watchpoints: compared before every line (and at call/return so
	// parameter binding and final mutations are seen).
	if t.checkWatches(fr, ev) {
		return true
	}

	switch ev {
	case minipy.EventCall:
		// 2. Tracked function entered.
		if ti := t.tracked[fr.Name]; ti != nil && t.probeHit(&ti.probeCtl, fr, ev) {
			t.reason = core.PauseReason{
				Type: core.PauseCall, Function: fr.Name,
				File: t.file, Line: fr.Line,
			}
			return true
		}
		// 3. Function breakpoint (args are bound at EventCall, which
		// is what guarantees the paper's "arguments are initialized").
		for i := range t.funcBPs {
			bp := &t.funcBPs[i]
			if bp.name == fr.Name && depthOK(bp.maxDepth, fr.Depth) &&
				t.probeHit(&bp.probeCtl, fr, ev) {
				t.reason = core.PauseReason{
					Type: core.PauseBreakpoint, Function: fr.Name,
					File: t.file, Line: fr.Line,
				}
				return true
			}
		}

	case minipy.EventReturn:
		if ti := t.tracked[fr.Name]; ti != nil && t.probeHit(&ti.probeCtl, fr, ev) {
			conv := minipy.NewConverter(t.interp)
			t.reason = core.PauseReason{
				Type: core.PauseReturn, Function: fr.Name,
				File: t.file, Line: fr.Line,
				ReturnValue: conv.Convert(ret),
			}
			return true
		}

	case minipy.EventLine:
		// 4. Line breakpoints.
		for i := range t.lineBPs {
			bp := &t.lineBPs[i]
			if bp.line == fr.Line && (bp.file == "" || bp.file == t.file) &&
				depthOK(bp.maxDepth, fr.Depth) &&
				t.probeHit(&bp.probeCtl, fr, ev) {
				t.reason = core.PauseReason{
					Type: core.PauseBreakpoint,
					File: t.file, Line: fr.Line,
				}
				return true
			}
		}
		// 5. Entry pause and stepping.
		if !t.entrySeen {
			t.entrySeen = true
			t.reason = core.PauseReason{
				Type: core.PauseEntry, File: t.file, Line: fr.Line,
			}
			return true
		}
		switch t.mode {
		case modeStep:
			t.reason = core.PauseReason{
				Type: core.PauseStep, File: t.file, Line: fr.Line,
			}
			return true
		case modeNext:
			if fr.Depth <= t.nextDepth {
				t.reason = core.PauseReason{
					Type: core.PauseStep, File: t.file, Line: fr.Line,
				}
				return true
			}
		}
	}
	return false
}

func depthOK(maxDepth, depth int) bool {
	return maxDepth <= 0 || depth < maxDepth
}

// probeHit is the conditional gate of a probe: the condition (if any) is
// evaluated against the current event, then ignore-count and one-shot
// bookkeeping apply. A disarmed (spent one-shot) probe never fires again.
func (t *Tracker) probeHit(c *probeCtl, fr *minipy.RTFrame, ev minipy.Event) bool {
	if c.disarmed {
		return false
	}
	if c.cond != nil && !t.evalCond(c.cond, fr, ev) {
		return false
	}
	return c.fire()
}

// evalCond evaluates a compiled condition against the current event through
// the tracker's reusable view; zero allocations on the miss path.
func (t *Tracker) evalCond(p *query.Program, fr *minipy.RTFrame, ev minipy.Event) bool {
	t.view.t = t
	t.view.fr = fr
	t.view.ev = ev
	return p.Match(&t.view)
}

// checkWatches compares every watched variable against its last snapshot.
//
// The hot path is O(1) per watch and allocation-free: a watch remembers the
// object its identifier resolved to and the interpreter's mutation epoch at
// the last snapshot. The interpreter's write barriers stamp every scope write
// and in-place mutation, so "same object, no reachable stamp newer than the
// snapshot" proves the value is unchanged without converting or comparing
// anything. Only a rebinding or a dirty object graph falls back to the deep
// structural compare (core.Value.Equivalent) on a fresh conversion.
func (t *Tracker) checkWatches(fr *minipy.RTFrame, ev minipy.Event) bool {
	if len(t.watches) == 0 {
		return false
	}
	if t.obs == nil {
		return t.compareWatches(fr, ev)
	}
	t0 := t.obs.Now()
	hit := t.compareWatches(fr, ev)
	t.obs.Observe(core.OpWatchCheck, t0)
	return hit
}

// compareWatches is the comparison loop behind checkWatches; a hit stores
// the pause into t.reason. Whether a watch changed is core.WatchChanged, the
// rule the replay paths share: a first definition fires, disappearing does
// not.
func (t *Tracker) compareWatches(fr *minipy.RTFrame, ev minipy.Event) bool {
	for _, w := range t.watches {
		// A conditioned watch is gated before the snapshot compare: while
		// the condition is false the watch neither fires nor advances its
		// snapshot, so a change made outside the condition window is
		// reported at the first event back inside it. The baseline is
		// still established once while gated — without it the first
		// in-window report would claim a first definition (nil Old)
		// instead of a change relative to the pre-window value.
		if w.disarmed {
			continue
		}
		if w.cond != nil && !t.evalCond(w.cond, fr, ev) {
			if w.snap == nil {
				if obj, ok := t.resolveWatch(fr, w); ok {
					conv := minipy.NewConverter(t.interp)
					w.snap = conv.VarValue(obj)
					w.lastObj, w.epoch = obj, t.interp.Epoch()
				}
			}
			continue
		}
		obj, ok := t.resolveWatch(fr, w)
		if !ok {
			// Still undefined, or the frame holding it is gone.
			w.snap, w.lastObj = nil, nil
			continue
		}
		if obj == w.lastObj && t.interp.ReachableEpoch(obj) <= w.epoch {
			continue // provably unchanged: skip conversion and compare
		}
		conv := minipy.NewConverter(t.interp)
		now := conv.VarValue(obj)
		old := w.snap
		w.snap, w.lastObj, w.epoch = now, obj, t.interp.Epoch()
		// An ignored hit still advances the snapshot above, so the next
		// report is relative to the value it skipped.
		if !core.WatchChanged(old, now) || !w.fire() {
			continue
		}
		t.reason = core.PauseReason{
			Type: core.PauseWatch, Variable: w.id,
			Old: old, New: now,
			File: t.file, Line: fr.Line,
		}
		return true
	}
	return false
}

// resolveWatch resolves a registered watch against the paused state. This is
// the hot half of resolveVar, constant-time in the depth of the stack: the
// identifier is pre-split, a "fn:name" or bare-name watch walks the frames
// only when the event's frame changes (one pointer compare plus one slot
// load otherwise), and global reads go through globalWatch's slot cache.
// Names outside a symtab (the tree walker, dynamically injected bindings)
// keep the map lookup.
func (t *Tracker) resolveWatch(fr *minipy.RTFrame, w *watch) (*minipy.Object, bool) {
	if w.scope == "::" {
		return t.globalWatch(w)
	}
	if fr != w.evFr {
		w.evFr, w.holder = fr, nil
		if w.scope == "" {
			w.holder = fr.Locals
		} else {
			for f := fr; f != nil; f = f.Parent {
				if f.Name == w.scope {
					w.holder = f.Locals
					break
				}
			}
		}
		if w.holder != nil {
			w.slot = w.holder.Slot(w.name)
		}
	}
	if w.holder == nil {
		return nil, false
	}
	var o *minipy.Object
	if w.slot >= 0 {
		o = w.holder.At(w.slot)
	} else {
		o, _ = w.holder.Get(w.name)
	}
	if o == nil && w.scope == "" {
		return t.globalWatch(w) // resolveVar's bare-name fallback
	}
	return o, o != nil
}

// globalWatch reads a watch's name from the module globals. The watch
// upgrades itself to a direct slot read (one array load per event) the first
// time the interpreter's module symtab is attached — the bytecode engine
// attaches it before the first trace event, so in practice every event after
// the first skips the map lookup.
func (t *Tracker) globalWatch(w *watch) (*minipy.Object, bool) {
	g := t.interp.Globals
	if w.gslot < 0 {
		w.gslot = g.Slot(w.name)
		if w.gslot < 0 {
			return g.Get(w.name)
		}
	}
	o := g.At(w.gslot)
	return o, o != nil
}

// resolveVar resolves a pre-split variable identifier against the paused
// state. fr is the frame the inferior is currently in.
func (t *Tracker) resolveVar(fr *minipy.RTFrame, fn, name string) (*minipy.Object, bool) {
	switch fn {
	case "::":
		o, ok := t.interp.Globals.Get(name)
		return o, ok
	case "":
		// A bare name follows MiniPy's two-level scoping rule, the same
		// one the interpreter's own lookupName applies: the innermost
		// frame's locals, then the module globals. MiniPy has no
		// closures, so enclosing function frames never contribute
		// bindings and are deliberately not walked.
		if o, ok := fr.Locals.Get(name); ok {
			return o, true
		}
		o, ok := t.interp.Globals.Get(name)
		return o, ok
	default:
		for f := fr; f != nil; f = f.Parent {
			if f.Name == fn {
				o, ok := f.Locals.Get(name)
				return o, ok
			}
		}
		return nil, false
	}
}

// waitPause blocks the tool goroutine until the inferior pauses or exits.
func (t *Tracker) waitPause() error {
	t.pauseSeq++
	select {
	case <-t.pauseCh:
		t.notePause()
		return nil
	case d := <-t.doneCh:
		t.exited = true
		t.exitCode = d.code
		t.curFrame = nil
		t.conv = nil
		t.finishRecording(d.code)
		t.reason = core.PauseReason{Type: core.PauseExited, ExitCode: d.code}
		t.notePause()
		if d.err != nil && !errors.Is(d.err, errTerminated) {
			var ce *crashError
			if errors.As(d.err, &ce) {
				t.obs.Event("crash", ce.Error())
			}
			return d.err
		}
		return nil
	}
}

// notePause reports a completed pause into the instrument panel.
func (t *Tracker) notePause() {
	if t.obs == nil {
		return
	}
	t.ctrPauses.Inc()
	if t.reason.Type == core.PauseWatch {
		t.ctrWatchHits.Inc()
	}
	t.obs.Event("pause", t.reason.String())
}

func (t *Tracker) resumeWith(mode stepMode, opName string) error {
	if !t.started {
		return core.ErrNotStarted
	}
	if t.exited {
		return core.ErrExited
	}
	// Forward execution always runs from the inferior's present moment: a
	// rewound replay cursor snaps back to live first (the inferior itself
	// never moved).
	t.returnToLive()
	t.mode = mode
	if mode == modeNext && t.curFrame != nil {
		t.nextDepth = t.curFrame.Depth
	}
	sp := t.tracer.StartOp(opName)
	t0 := t.obs.Now()
	stop := t.armDeadline()
	t.resumeCh <- struct{}{}
	err := t.waitPause()
	stop()
	t.obs.Observe(opName, t0)
	sp.EndErr(err)
	return err
}

// Resume continues to the next pause condition or termination.
func (t *Tracker) Resume() error { return t.werr("Resume", t.resumeWith(modeRun, core.OpResume)) }

// Step executes one line, entering calls.
func (t *Tracker) Step() error { return t.werr("Step", t.resumeWith(modeStep, core.OpStep)) }

// Next executes one line, stepping over calls.
func (t *Tracker) Next() error { return t.werr("Next", t.resumeWith(modeNext, core.OpNext)) }

// werr wraps err in the tracker's typed error (core.TrackerError), keeping
// errors.Is/errors.As against the sentinels working.
func (t *Tracker) werr(op string, err error) error {
	file, line := t.Position()
	var ce *crashError
	if errors.As(err, &ce) {
		// An inferior crash gets the full structured treatment: the
		// MiniPy backtrace captured at the panic site plus the flight
		// recorder (when on), so the error alone explains the crash.
		return &core.TrackerError{
			Op: op, Kind: Kind, File: file, Line: line,
			Backtrace: ce.backtrace,
			Trail:     t.obs.EventDump(),
			Err:       ce,
		}
	}
	return core.WrapErr(Kind, op, file, line, err)
}

// Terminate kills the inferior.
func (t *Tracker) Terminate() error {
	if !t.started || t.exited {
		t.exited = true
		return nil
	}
	t.terminated = true
	t.resumeCh <- struct{}{}
	d := <-t.doneCh
	t.exited = true
	t.exitCode = d.code
	t.finishRecording(d.code)
	t.reason = core.PauseReason{Type: core.PauseExited, ExitCode: d.code}
	return nil
}

// Arm registers any probe kind — the unified arming surface behind the
// four convenience methods. Conditions compile here, once, so a bad
// expression is an ErrBadQuery arming error rather than a runtime surprise.
func (t *Tracker) Arm(p core.Probe) error {
	sp := t.tracer.Start(core.SpanArm)
	sp.Detail = p.Op()
	err := t.arm(p)
	sp.EndErr(err)
	return err
}

func (t *Tracker) arm(p core.Probe) error {
	op := p.Op()
	if !t.loaded {
		return t.werr(op, core.ErrNoProgram)
	}
	ctl, err := compileCtl(p.BreakConfig)
	if err != nil {
		return t.werr(op, err)
	}
	switch p.Kind {
	case core.ProbeLine:
		if p.Line < 1 || p.Line > len(t.srcLines) {
			return t.werr(op, core.ErrBadLine)
		}
		t.lineBPs = append(t.lineBPs, lineBP{
			file: p.File, line: p.Line, maxDepth: p.MaxDepth, probeCtl: ctl,
		})
	case core.ProbeFunc:
		if !t.functionExists(p.Function) {
			return t.werr(op, core.ErrUnknownFunction)
		}
		t.funcBPs = append(t.funcBPs, funcBP{
			name: p.Function, maxDepth: p.MaxDepth, probeCtl: ctl,
		})
	case core.ProbeTrack:
		if !t.functionExists(p.Function) {
			return t.werr(op, core.ErrUnknownFunction)
		}
		t.tracked[p.Function] = &trackInfo{probeCtl: ctl}
	case core.ProbeWatch:
		fn, name := core.SplitVarID(p.VarID)
		t.watches = append(t.watches, &watch{
			id: p.VarID, scope: fn, name: name, gslot: -1, probeCtl: ctl,
		})
		t.obs.Gauge(core.GaugeWatches).Set(int64(len(t.watches)))
	default:
		return t.werr(op, core.ErrUnsupported)
	}
	return nil
}

// compileCtl compiles a BreakConfig's condition into the runtime gate.
func compileCtl(bc core.BreakConfig) (probeCtl, error) {
	ctl := probeCtl{ignoreLeft: bc.IgnoreHits, oneShot: bc.OneShot}
	if bc.Condition != "" {
		p, err := query.Compile(bc.Condition)
		if err != nil {
			return ctl, err
		}
		ctl.cond = p
	}
	return ctl, nil
}

// ConditionalProbes advertises the ConditionalBreaker capability.
func (t *Tracker) ConditionalProbes() bool { return true }

// BreakBeforeLine registers a line breakpoint. Equivalent to
// Arm(core.LineProbe(file, line, opts...)).
func (t *Tracker) BreakBeforeLine(file string, line int, opts ...core.BreakOption) error {
	return t.Arm(core.LineProbe(file, line, opts...))
}

// BreakBeforeFunc registers a function-entry breakpoint. Equivalent to
// Arm(core.FuncProbe(name, opts...)).
func (t *Tracker) BreakBeforeFunc(name string, opts ...core.BreakOption) error {
	return t.Arm(core.FuncProbe(name, opts...))
}

// TrackFunction pauses at every entry and exit of the named function.
// Equivalent to Arm(core.TrackProbe(name, opts...)).
func (t *Tracker) TrackFunction(name string, opts ...core.BreakOption) error {
	return t.Arm(core.TrackProbe(name, opts...))
}

// functionExists scans the module for a def (or class method) of this name.
func (t *Tracker) functionExists(name string) bool {
	found := false
	var walk func([]minipy.Stmt)
	walk = func(body []minipy.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *minipy.FuncDef:
				if st.Name == name {
					found = true
				}
				walk(st.Body)
			case *minipy.ClassDef:
				walk(st.Body)
			case *minipy.IfStmt:
				walk(st.Body)
				walk(st.Else)
			case *minipy.WhileStmt:
				walk(st.Body)
			case *minipy.ForStmt:
				walk(st.Body)
			}
		}
	}
	walk(t.module.Body)
	return found
}

// Watch pauses whenever the identified variable is modified. Equivalent to
// Arm(core.WatchProbe(varID, opts...)).
func (t *Tracker) Watch(varID string, opts ...core.BreakOption) error {
	return t.Arm(core.WatchProbe(varID, opts...))
}

// PauseReason reports why the inferior is paused.
func (t *Tracker) PauseReason() core.PauseReason { return t.reason }

// ExitCode returns the exit status once the inferior terminated.
func (t *Tracker) ExitCode() (int, bool) {
	if !t.exited {
		return 0, false
	}
	return t.exitCode, true
}

// CurrentFrame snapshots the paused inferior's innermost frame. The snapshot
// is served from the pause-scoped State cache, so a tool inspecting frame,
// globals and full state in the same pause pays for one conversion.
func (t *Tracker) CurrentFrame() (*core.Frame, error) {
	if !t.started {
		return nil, t.werr("CurrentFrame", core.ErrNotStarted)
	}
	if !t.replaying() && (t.exited || t.curFrame == nil) {
		return nil, t.werr("CurrentFrame", core.ErrExited)
	}
	st, err := t.State()
	if err != nil {
		return nil, t.werr("CurrentFrame", err)
	}
	return st.Frame, nil
}

// GlobalVariables snapshots the module scope, served from the pause-scoped
// State cache while the inferior is live.
func (t *Tracker) GlobalVariables() ([]*core.Variable, error) {
	if !t.started {
		return nil, t.werr("GlobalVariables", core.ErrNotStarted)
	}
	if t.replaying() {
		st, err := t.State()
		if err != nil {
			return nil, t.werr("GlobalVariables", err)
		}
		return st.Globals, nil
	}
	if t.exited || t.curFrame == nil {
		// After exit there is no frame to snapshot, but the module
		// scope is still inspectable (State would return no globals).
		conv := minipy.NewConverter(t.interp)
		return minipy.SnapshotGlobals(conv, t.interp.Globals), nil
	}
	st, err := t.State()
	if err != nil {
		return nil, t.werr("GlobalVariables", err)
	}
	return st.Globals, nil
}

// State snapshots frames, globals and the pause reason with one shared value
// table, preserving aliasing between frame variables and globals. The result
// is memoized keyed by (pause sequence number, interpreter mutation epoch)
// and invalidated by resuming, so repeated inspection of the same pause is
// free. Each call returns a fresh shallow copy of the cached struct: callers
// may set its Reason without writing into the cache, but the Frame and
// Globals graphs are shared, within a pause and with the States of earlier
// and later pauses, and must be treated as read-only.
func (t *Tracker) State() (*core.State, error) {
	if !t.started {
		return nil, t.werr("State", core.ErrNotStarted)
	}
	if t.replaying() {
		st, err := t.replayState()
		if err != nil {
			return nil, t.werr("State", err)
		}
		return st, nil
	}
	if t.exited || t.curFrame == nil {
		return &core.State{Reason: t.reason}, nil
	}
	if t.snapState == nil || t.snapSeq != t.pauseSeq || t.snapEpoch != t.interp.Epoch() {
		sp := t.tracer.Start(core.OpStateFetch)
		t0 := t.obs.Now()
		if t.conv == nil {
			t.conv = minipy.NewConverter(t.interp)
		}
		t.snapState = &core.State{
			Frame:   minipy.SnapshotFrame(t.conv, t.curFrame, t.file),
			Globals: minipy.SnapshotGlobals(t.conv, t.interp.Globals),
			Reason:  t.reason,
		}
		t.snapSeq, t.snapEpoch = t.pauseSeq, t.interp.Epoch()
		t.obs.Observe(core.OpStateFetch, t0)
		sp.End()
		t.ctrSnapMiss.Inc()
	} else {
		t.ctrSnapHit.Inc()
	}
	cp := *t.snapState
	return &cp, nil
}

// Position returns the next line to execute; while rewound into the
// recording it reports the replay cursor's line.
func (t *Tracker) Position() (string, int) {
	if t.replaying() {
		return t.file, t.rec.Store().LineAt(t.replay)
	}
	if t.curFrame == nil {
		return t.file, 0
	}
	return t.file, t.curFrame.Line
}

// LastLine returns the most recently executed line.
func (t *Tracker) LastLine() int { return t.lastLine }

// SourceLines returns the program's source text.
func (t *Tracker) SourceLines() ([]string, error) {
	if !t.loaded {
		return nil, t.werr("SourceLines", core.ErrNoProgram)
	}
	return append([]string(nil), t.srcLines...), nil
}
