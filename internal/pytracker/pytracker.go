// Package pytracker implements the EasyTracker Tracker interface for MiniPy
// inferiors, reproducing the paper's Python tracker (Section II-C2): the
// inferior runs in its own goroutine (the paper's thread), the interpreter's
// trace hook is the control point, and control functions performed by the
// tool goroutine block until the inferior pauses again. The paper resumes
// by single-stepping, comparing watched values before every line; here
// Resume calls the hook only where a probe can fire: at every call and
// return, at armed lines, and at the line after a write a watch can see, a
// frame change or an interrupt. Step, Next, recording, budgets and
// conditioned watches keep the hook on every line (DESIGN.md §8).
package pytracker

import (
	"errors"
	"fmt"
	"math"
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
// The caller passes the interpreter's current frame, which a panic leaves
// at the frame that panicked.
func minipyBacktrace(fr *minipy.RTFrame) []string {
	var bt []string
	for ; fr != nil; fr = fr.Parent {
		bt = append(bt, fmt.Sprintf("%s at line %d (depth %d)", fr.Name, fr.Line, fr.Depth))
	}
	return bt
}

// watchCache is the live state a watch keeps next to its entry in the
// probe table: the caches that make the per-line read constant-time
// (pyView.Watched).
type watchCache struct {
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
	// lastObj is the object the identifier resolved to when the watch's
	// snapshot (ttd.Watch.Snap) was converted, nil while it is undefined,
	// and epoch the interpreter's mutation epoch at that moment. Together
	// they form the O(1) dirty check: the same object with no reachable
	// mutation since epoch still is the snapshot, so nothing is converted.
	lastObj *minipy.Object
	epoch   uint64
}

type exitInfo struct {
	code int
	err  error
}

// Tracker controls one MiniPy inferior. It is driven by a single tool
// goroutine; the inferior runs in a second goroutine started by Start.
type Tracker struct {
	core.Arming
	// Travel is time travel over the session's recording (recording.go).
	ttd.Travel

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
	lastLine  int
	entrySeen bool

	// stopDepth is the deepest frame a line event stops in: -1 for
	// Resume, math.MaxInt for Step, the frame depth Next started in.
	stopDepth int
	// skip lets the interpreter skip the hook at lines where no probe can
	// fire, for the current resuming call: only a Resume after the entry
	// pause, with no recording, budget or conditioned watch (condWatch).
	// A conditioned watch can fire at a line no write reaches, where its
	// condition turns true, so it needs every line.
	skip      bool
	condWatch bool
	// probes is the armed-probe table and its classifier, which the trace
	// hook calls at every event it sees; reverse moves over the session's
	// recording classify against the same table. Arming a line or a watch
	// also arms the interpreter's line bitmap or slot marks.
	probes ttd.Probes[watchCache]

	// view and event are the reusable event the classifier reads (event's
	// View and Values point at view); holding both by value keeps the
	// per-event check allocation-free.
	view  pyView
	event ttd.Event[watchCache]

	// intr is the cooperative interrupt flag (intrNone/intrUser/
	// intrDeadline). It and attnInterp, the loaded interpreter whose
	// attention an interrupt raises, are the only tracker fields touched
	// from outside the tool goroutine: Interrupt() and the deadline timer
	// raise it, the trace hook consumes it. budgets/supervised configure
	// the per-event resource checks; the *Tripped latches make each budget
	// one-shot, so an inspected-and-resumed inferior is not re-paused on
	// every subsequent line by the budget it already tripped.
	intr         atomic.Int32
	attnInterp   atomic.Pointer[minipy.Interp]
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
	// black box, and the trace hook can run on every executed line, so even
	// the always-on flight recorder would tax the default path. All obs
	// methods are nil-safe, so the off cost is one pointer test. The
	// counters touched per pause are cached to skip the registry lookup;
	// ctrLines catches up with the interpreter's Steps at each pause
	// (linesSeen is the count it last reported).
	obs          *obs.Metrics
	linesSeen    int64
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
	// (BenchmarkResumeWithWatchpointMiniPy gates it). recFr/recEpoch key the
	// snapshot-free fast path; recOut tees the inferior's stdout so steps
	// carry output deltas; recErr latches the first recording failure.
	rec      *ttd.Recorder
	recErr   error
	recOut   *recordTee
	recFr    *minipy.RTFrame
	recEpoch uint64
}

// New returns an unloaded MiniPy tracker.
func New() *Tracker {
	t := &Tracker{
		pauseCh:  make(chan struct{}),
		resumeCh: make(chan struct{}),
		doneCh:   make(chan exitInfo, 1),
	}
	t.Arming = core.NewArming(t)
	t.Travel = ttd.NewTravel(t)
	t.view.t = t
	t.event.View, t.event.Values = &t.view, &t.view
	return t
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
	in.SetTrace(t.traceFn)
	// Probes armed before a reload reach the new interpreter too.
	for _, b := range t.probes.Lines {
		in.ArmLine(b.Line)
	}
	for _, w := range t.probes.Watches {
		in.Watch(w.Scope, w.Name)
	}
	t.attnInterp.Store(in)
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
	t.tracer = t.cfg.Obs.Tracer(Kind)
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
				t.doneCh <- exitInfo{code: 2, err: &crashError{
					val:       r,
					backtrace: minipyBacktrace(t.interp.CurrentFrame()),
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
	if in := t.attnInterp.Load(); in != nil {
		in.RaiseAttention()
	}
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
	in := t.interp
	timer := time.AfterFunc(d, func() {
		t.intr.CompareAndSwap(intrNone, intrDeadline)
		in.RaiseAttention()
	})
	return func() {
		timer.Stop()
		t.intr.CompareAndSwap(intrDeadline, intrNone)
	}
}

// traceFn runs in the inferior goroutine at every event the interpreter
// delivers. It is the hottest code in the tracker, so the pause checks
// below return a bare bool and build the PauseReason (by storing it into
// t.reason) only on the rare event that actually pauses.
//
// While t.skip, each call lowers the interpreter's attention flag and only
// a pause raises it again, so between pauses a line reaches the hook only
// if its line is armed or a watched write, a frame change or an interrupt
// raised the flag since the last event the hook saw.
func (t *Tracker) traceFn(fr *minipy.RTFrame, ev minipy.Event, ret *minipy.Object) error {
	if t.terminated {
		return errTerminated
	}
	// Lowered before the interrupt flag is read, so an interrupt raised
	// after that read raises attention again and pauses the next line.
	if t.skip {
		t.interp.LowerAttention()
	}
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
	if !pause {
		return nil
	}
	if t.skip {
		// Classify stops at the first watch that pauses: another one
		// changed at this event reports at the next event.
		t.interp.RaiseAttention()
	}
	t.curFrame = fr
	t.stopDepth = -1
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

// checkPause decides whether the inferior pauses at this event. The probes
// and the Step/Next stop are ttd.Probes.Classify's, over the tracker's view
// of the event, timed as the watch check while watches are armed; an event
// with nothing armed and no stop due skips it. Only the entry pause, at
// the first line event no probe took, is the tracker's own. A pause is
// stored into t.reason.
func (t *Tracker) checkPause(fr *minipy.RTFrame, ev minipy.Event, ret *minipy.Object) bool {
	line := ev == minipy.EventLine
	stop := line && t.entrySeen && fr.Depth <= t.stopDepth
	ok := false
	if stop || t.probes.Armed() {
		t.view.fr, t.view.ev, t.view.ret = fr, ev, ret
		e := &t.event
		e.Kind, e.Func, e.Line, e.Depth = t.view.Event(), fr.Name, fr.Line, fr.Depth
		if t.obs == nil || len(t.probes.Watches) == 0 {
			ok = t.probes.Classify(e, nil, stop, &t.reason)
		} else {
			t0 := t.obs.Now()
			ok = t.probes.Classify(e, nil, stop, &t.reason)
			t.obs.Observe(core.OpWatchCheck, t0)
		}
	}
	if !ok && line && !t.entrySeen {
		t.entrySeen = true
		t.reason = core.PauseReason{Type: core.PauseEntry, File: t.file, Line: fr.Line}
		return true
	}
	return ok
}

// Watched implements ttd.Resolver: the watch's variable at this event,
// constant-time in the depth of the stack and the size of the value. The
// identifier was parsed at arm time; a "fn:name" or bare-name watch walks
// the frames only when the event's frame changes (one pointer compare plus
// one slot load otherwise), and global reads go through globalWatch's slot
// cache. Names outside a symtab (dynamically injected bindings) keep the
// map lookup. The same object with no reachable write stamp newer than the
// snapshot's epoch is the snapshot itself, so the hot path converts and
// allocates nothing; only a rebinding or a dirty object graph pays for a
// fresh conversion.
func (v *pyView) Watched(w *ttd.Watch[watchCache]) *core.Value {
	t, c := v.t, &w.Live
	var o *minipy.Object
	if w.Scope == "::" {
		o = t.globalWatch(c, w.Name)
	} else {
		if v.fr != c.evFr {
			c.evFr, c.holder = v.fr, nil
			if w.Scope == "" {
				c.holder = v.fr.Locals
			} else {
				for f := v.fr; f != nil; f = f.Parent {
					if f.Name == w.Scope {
						c.holder = f.Locals
						break
					}
				}
			}
			if c.holder != nil {
				c.slot = c.holder.Slot(w.Name)
			}
		}
		switch {
		case c.holder == nil: // no frame named w.Scope is live
		case c.slot >= 0:
			o = c.holder.At(c.slot)
		default:
			o, _ = c.holder.Get(w.Name)
		}
		if o == nil && w.Scope == "" && c.holder != nil {
			o = t.globalWatch(c, w.Name) // resolveVar's bare-name fallback
		}
	}
	if o == nil {
		c.lastObj = nil
		return nil
	}
	if o == c.lastObj && t.interp.ReachableEpoch(o) <= c.epoch {
		return w.Snap
	}
	c.lastObj, c.epoch = o, t.interp.Epoch()
	return minipy.NewConverter(t.interp).VarValue(o)
}

// globalWatch reads a watch's name from the module globals. The watch
// upgrades itself to a direct slot read (one array load per event, inlined
// into the caller) the first time the interpreter's module symtab is
// attached — Run attaches it before the first trace event, so in practice
// every event after the first skips the map lookup.
func (t *Tracker) globalWatch(c *watchCache, name string) *minipy.Object {
	if c.gslot >= 0 {
		return t.interp.Globals.At(c.gslot)
	}
	return t.globalSlot(c, name)
}

// globalSlot is globalWatch before the slot is known.
func (t *Tracker) globalSlot(c *watchCache, name string) *minipy.Object {
	g := t.interp.Globals
	if c.gslot = g.Slot(name); c.gslot >= 0 {
		return g.At(c.gslot)
	}
	o, _ := g.Get(name)
	return o
}

// resolveVar resolves a parsed variable reference against the paused
// state. fr is the frame the inferior is currently in.
func (t *Tracker) resolveVar(fr *minipy.RTFrame, fn, name string) (*minipy.Object, bool) {
	switch fn {
	case "::":
		o, ok := t.interp.Globals.Get(name)
		return o, ok
	case "":
		// A bare name follows MiniPy's two-level scoping rule, the same
		// one the interpreter applies: the innermost frame's locals,
		// then the module globals. MiniPy has no closures, so enclosing
		// function frames never contribute bindings and are
		// deliberately not walked.
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
		t.lastLine = t.interp.LastLine()
		t.notePause()
		return nil
	case d := <-t.doneCh:
		t.lastLine = t.interp.LastLine()
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
	steps := t.interp.Steps()
	t.ctrLines.Add(uint64(steps - t.linesSeen))
	t.linesSeen = steps
	t.ctrPauses.Inc()
	if t.reason.Type == core.PauseWatch {
		t.ctrWatchHits.Inc()
	}
	t.obs.Event("pause", t.reason.String())
}

// resumeWith runs the inferior until its next pause; a line event stops
// it in a frame no deeper than stopDepth.
func (t *Tracker) resumeWith(stopDepth int, opName string) error {
	if !t.started {
		return core.ErrNotStarted
	}
	if t.exited {
		return core.ErrExited
	}
	t.Present()
	t.stopDepth = stopDepth
	t.skip = stopDepth < 0 && t.entrySeen && t.rec == nil && !t.supervised && !t.condWatch
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
func (t *Tracker) Resume() error { return t.werr("Resume", t.resumeWith(-1, core.OpResume)) }

// Step executes one line, entering calls.
func (t *Tracker) Step() error { return t.werr("Step", t.resumeWith(math.MaxInt, core.OpStep)) }

// Next executes one line, stepping over calls.
func (t *Tracker) Next() error {
	depth := 0
	if t.curFrame != nil {
		depth = t.curFrame.Depth
	}
	return t.werr("Next", t.resumeWith(depth, core.OpNext))
}

// werr wraps err in the tracker's typed error (core.TrackerError), keeping
// errors.Is/errors.As against the sentinels working.
func (t *Tracker) werr(op string, err error) error {
	if err == nil {
		// Before errors.As, which would move ce to the heap on success too.
		return nil
	}
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
	g, err := query.NewGate(p.BreakConfig)
	if err != nil {
		return t.werr(op, err)
	}
	switch p.Kind {
	case core.ProbeLine:
		if p.Line < 1 || p.Line > len(t.srcLines) {
			return t.werr(op, core.ErrBadLine)
		}
	case core.ProbeFunc, core.ProbeTrack:
		if !t.functionExists(p.Function) {
			return t.werr(op, core.ErrUnknownFunction)
		}
	}
	w, err := t.probes.Arm(p, g)
	if err != nil {
		return t.werr(op, err)
	}
	if p.Kind == core.ProbeLine {
		t.interp.ArmLine(p.Line)
	}
	if w != nil {
		t.interp.Watch(w.Scope, w.Name)
		t.condWatch = t.condWatch || p.Condition != ""
		w.Live = watchCache{gslot: -1}
		if t.curFrame != nil {
			// Paused at an event: the snapshot is the value there, in the
			// present even while inspection is rewound.
			t.view.fr = t.curFrame
			w.Snap = t.view.Watched(w)
		}
		t.obs.Gauge(core.GaugeWatches).Set(int64(len(t.probes.Watches)))
	}
	return nil
}

// ConditionalProbes advertises the ConditionalBreaker capability.
func (t *Tracker) ConditionalProbes() bool { return true }

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
	if !t.Rewound() && (t.exited || t.curFrame == nil) {
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
	if t.Rewound() {
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
	if t.Rewound() {
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
	if t.Rewound() {
		return t.file, t.rec.Store().LineAt(t.Pos())
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
