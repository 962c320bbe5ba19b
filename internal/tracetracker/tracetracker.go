// Package tracetracker implements the EasyTracker Tracker interface on top
// of a recorded pt.Trace — the paper's Section III-E in the other
// direction: "use an existing trace format and navigate the trace with the
// EasyTracker API by implementing a dedicated tracker. ... This enables the
// full power of control through the API on a pre-generated trace", and
// languages not supported natively become controllable through an external
// tracer.
package tracetracker

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"easytracker/internal/core"
	"easytracker/internal/obs"
	"easytracker/internal/pt"
	"easytracker/internal/query"
	"easytracker/internal/ttd"
)

// Kind is the tracker registry name.
const Kind = "trace"

func init() {
	core.RegisterTracker(Kind, func() core.Tracker { return New() })
}

// probeCtl is the conditional-arming state of a replay probe: compiled
// condition, remaining ignore count, one-shot latch.
type probeCtl struct {
	cond       *query.Program
	ignoreLeft int
	oneShot    bool
	disarmed   bool
}

// hit gates one condition-passing event through ignore/one-shot
// bookkeeping.
func (c *probeCtl) hit() bool {
	if c.ignoreLeft > 0 {
		c.ignoreLeft--
		return false
	}
	if c.oneShot {
		c.disarmed = true
	}
	return true
}

// passes evaluates the full gate against the event view.
func (c *probeCtl) passes(v *query.StateView) bool {
	if c.disarmed {
		return false
	}
	if c.cond != nil && !c.cond.Match(v) {
		return false
	}
	return c.hit()
}

type lineBP struct {
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

// traceWatch is one armed watch over the recorded variable stream.
type traceWatch struct {
	id string
	probeCtl
}

// Tracker replays a recorded trace through the control/inspection API.
type Tracker struct {
	// src abstracts the recording's format: a v0/v1 full-state trace or a
	// v2 delta store.
	src    source
	loaded bool

	// pos indexes the current step; -1 before Start.
	pos     int
	started bool
	exited  bool

	reason   core.PauseReason
	lastLine int

	lineBPs []lineBP
	funcBPs []funcBP
	tracked map[string]*trackInfo
	watches []*traceWatch

	// view is the reusable condition view over the current step.
	view query.StateView

	// obs is the tracker's instrument panel, nil unless WithObservability
	// was given on LoadProgram (LoadTrace installs a trace directly and
	// carries no options, so it replays unobserved). The replay loop visits
	// every recorded step, so the counter it touches is cached.
	obs       *obs.Metrics
	ctrSteps  *obs.Counter
	ctrPauses *obs.Counter

	// tracer records one span per replay op when span tracing is on; nil
	// otherwise.
	tracer *obs.Tracer
}

// New returns an unloaded trace tracker.
func New() *Tracker {
	return &Tracker{pos: -1, tracked: map[string]*trackInfo{}}
}

// LoadTrace installs an in-memory v0/v1 trace.
func (t *Tracker) LoadTrace(tr *pt.Trace) error {
	if len(tr.Steps) == 0 {
		return errors.New("tracetracker: empty trace")
	}
	t.src = &v1source{tr: tr}
	t.loaded = true
	return nil
}

// LoadStore installs an in-memory delta-encoded recording.
func (t *Tracker) LoadStore(s *ttd.Store) error {
	if s.Len() == 0 {
		return errors.New("tracetracker: empty trace")
	}
	t.src = &v2source{s: s}
	t.loaded = true
	return nil
}

// LoadProgram loads a serialized trace from path (or core.WithSource),
// routing each format version to its decoder.
func (t *Tracker) LoadProgram(path string, opts ...core.LoadOption) error {
	cfg := core.ApplyLoadOptions(opts)
	data := []byte(cfg.Source)
	if cfg.Source == "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("tracetracker: %w", err)
		}
		data = b
	}
	if pt.SniffVersion(data) == pt.V2Version {
		t2, err := pt.DecodeV2(data)
		if err != nil {
			return err
		}
		store, err := ttd.FromV2(t2)
		if err != nil {
			return err
		}
		if err := t.LoadStore(store); err != nil {
			return err
		}
	} else {
		tr, err := pt.Decode(data)
		if err != nil {
			return err
		}
		if err := t.LoadTrace(tr); err != nil {
			return err
		}
	}
	if cfg.Obs.Enabled {
		events := cfg.Obs.Events
		if events <= 0 {
			events = obs.DefaultEvents
		}
		t.obs = obs.New(obs.Config{Enabled: true, Events: events})
		t.ctrSteps = t.obs.Counter(core.CtrStepsReplayed)
		t.ctrPauses = t.obs.Counter(core.CtrPauses)
	}
	if sink := cfg.Obs.SpanSink; sink != nil {
		t.tracer = obs.NewTracerOn(Kind, sink)
	} else if cfg.Obs.Spans > 0 {
		t.tracer = obs.NewTracer(Kind, cfg.Obs.Spans)
	}
	return nil
}

// Stats implements core.StatsProvider.
func (t *Tracker) Stats() *obs.Snapshot {
	s := t.obs.Snapshot()
	s.Tracker = Kind
	return s
}

// ObsMetrics implements core.MetricsSource; nil when observability is off.
func (t *Tracker) ObsMetrics() *obs.Metrics { return t.obs }

// Spans implements core.SpanProvider; nil when span tracing is off.
func (t *Tracker) Spans() []obs.SpanRecord { return t.tracer.Spans() }

// SpanTracer implements core.SpanTracerSource; nil when span tracing is off.
func (t *Tracker) SpanTracer() *obs.Tracer { return t.tracer }

// Start positions the replay at the first recorded step.
func (t *Tracker) Start() error {
	if !t.loaded {
		return t.werr("Start", core.ErrNoProgram)
	}
	if t.started {
		return t.werr("Start", errors.New("tracetracker: already started"))
	}
	sp := t.tracer.StartOp(core.OpStart)
	t.started = true
	t.pos = 0
	t.reason = core.PauseReason{
		Type: core.PauseEntry,
		File: t.src.file(),
		Line: t.src.line(0),
	}
	t.notePause()
	sp.End()
	return nil
}

// notePause reports a completed pause into the instrument panel.
func (t *Tracker) notePause() {
	if t.obs == nil {
		return
	}
	t.ctrPauses.Inc()
	if t.reason.Type == core.PauseWatch {
		t.obs.Counter(core.CtrWatchHits).Inc()
	}
	t.obs.Event("pause", t.reason.String())
}

// advance moves to the next step, handling the end of the trace.
func (t *Tracker) advance() bool {
	t.lastLine = t.src.line(t.pos)
	t.pos++
	t.ctrSteps.Inc()
	if t.pos >= t.src.numSteps() || t.src.event(t.pos) == pt.EventFinished {
		t.exited = true
		t.reason = core.PauseReason{Type: core.PauseExited, ExitCode: t.src.exitCode()}
		return false
	}
	return true
}

// pauseHere classifies the current step against the registered pause
// conditions; ok=false means the replay should keep advancing on Resume.
// The condition view materializes the step's full state lazily, so on the
// delta-encoded format a Resume that sweeps thousands of steps with no
// variable-touching conditions never reconstructs a state.
func (t *Tracker) pauseHere(prev int) (core.PauseReason, bool) {
	pos := t.pos
	ev, line, fn := t.src.event(pos), t.src.line(pos), t.src.fn(pos)
	file := t.src.file()
	depth := t.src.depth(pos)
	t.view = query.StateView{
		EventName: queryEvent(ev), LineNo: line,
		FileName: file, FuncName: fn,
		LazyState: func() *core.State {
			st, _ := t.src.stateAt(pos)
			return st
		},
		DepthNo: depth,
	}

	// Watches: core.WatchChanged on the transition between prev and now,
	// read in forward time — running backwards (prev after pos) the value
	// here is the earlier one. Old/New keep the crossing order.
	for _, w := range t.watches {
		if w.disarmed {
			continue
		}
		if w.cond != nil && !w.cond.Match(&t.view) {
			continue
		}
		oldV := t.src.varAt(prev, w.id)
		newV := t.src.varAt(pos, w.id)
		before, after := oldV, newV
		if prev > pos {
			before, after = newV, oldV
		}
		if core.WatchChanged(before, after) && w.hit() {
			return core.PauseReason{
				Type: core.PauseWatch, Variable: w.id,
				Old: oldV, New: newV,
				File: file, Line: line,
			}, true
		}
	}
	// Tracked function boundaries recorded in the trace.
	if ev == pt.EventCall {
		if ti := t.tracked[fn]; ti != nil && ti.passes(&t.view) {
			return core.PauseReason{
				Type: core.PauseCall, Function: fn,
				File: file, Line: line,
			}, true
		}
	}
	if ev == pt.EventReturn {
		if ti := t.tracked[fn]; ti != nil && ti.passes(&t.view) {
			return core.PauseReason{
				Type: core.PauseReturn, Function: fn,
				ReturnValue: t.src.returnValue(pos),
				File:        file, Line: line,
			}, true
		}
	}
	// Function breakpoints: a call event entering the function.
	if ev == pt.EventCall {
		for i := range t.funcBPs {
			bp := &t.funcBPs[i]
			if bp.name == fn && depthOK(bp.maxDepth, depth) && bp.passes(&t.view) {
				return core.PauseReason{
					Type: core.PauseBreakpoint, Function: fn,
					File: file, Line: line,
				}, true
			}
		}
	}
	// Line breakpoints.
	for i := range t.lineBPs {
		bp := &t.lineBPs[i]
		if bp.line == line && depthOK(bp.maxDepth, depth) && bp.passes(&t.view) {
			return core.PauseReason{
				Type: core.PauseBreakpoint,
				File: file, Line: line,
			}, true
		}
	}
	return core.PauseReason{}, false
}

// queryEvent maps a recorded pt event onto the query language's event
// vocabulary; step_line (and exception) read as "line".
func queryEvent(ev string) string {
	switch ev {
	case pt.EventCall:
		return query.EventCall
	case pt.EventReturn:
		return query.EventReturn
	default:
		return query.EventLine
	}
}

func depthOK(maxDepth, depth int) bool {
	return maxDepth <= 0 || depth < maxDepth
}

// werr wraps err in the tracker's typed error (core.TrackerError), keeping
// errors.Is/errors.As against the sentinels working.
func (t *Tracker) werr(op string, err error) error {
	file, line := t.Position()
	return core.WrapErr(Kind, op, file, line, err)
}

// Resume advances to the next recorded step matching a pause condition.
func (t *Tracker) Resume() error {
	if err := t.controlOK(); err != nil {
		return t.werr("Resume", err)
	}
	sp := t.tracer.StartOp(core.OpResume)
	t0 := t.obs.Now()
	for {
		prev := t.pos
		if !t.advance() {
			break
		}
		if r, ok := t.pauseHere(prev); ok {
			t.reason = r
			break
		}
	}
	t.obs.Observe(core.OpResume, t0)
	t.notePause()
	sp.End()
	return nil
}

// Step advances one recorded step.
func (t *Tracker) Step() error {
	if err := t.controlOK(); err != nil {
		return t.werr("Step", err)
	}
	sp := t.tracer.StartOp(core.OpStep)
	t0 := t.obs.Now()
	if t.advance() {
		t.reason = core.PauseReason{
			Type: core.PauseStep, File: t.src.file(), Line: t.src.line(t.pos),
		}
	}
	t.obs.Observe(core.OpStep, t0)
	t.notePause()
	sp.End()
	return nil
}

// Next advances to the next step at the same or shallower depth.
func (t *Tracker) Next() error {
	if err := t.controlOK(); err != nil {
		return t.werr("Next", err)
	}
	sp := t.tracer.StartOp(core.OpNext)
	t0 := t.obs.Now()
	startDepth := t.src.depth(t.pos)
	for {
		if !t.advance() {
			break
		}
		if t.src.depth(t.pos) <= startDepth {
			t.reason = core.PauseReason{
				Type: core.PauseStep, File: t.src.file(), Line: t.src.line(t.pos),
			}
			break
		}
	}
	t.obs.Observe(core.OpNext, t0)
	t.notePause()
	sp.End()
	return nil
}

func (t *Tracker) controlOK() error {
	if !t.loaded {
		return core.ErrNoProgram
	}
	if !t.started {
		return core.ErrNotStarted
	}
	if t.exited {
		return core.ErrExited
	}
	return nil
}

// Terminate ends the replay.
func (t *Tracker) Terminate() error {
	t.exited = true
	return nil
}

// Arm registers any probe kind against the replay — the unified arming
// surface behind the four convenience methods. Conditions compile here so a
// bad expression fails the arming call with ErrBadQuery.
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
	ctl := probeCtl{ignoreLeft: p.IgnoreHits, oneShot: p.OneShot}
	if p.Condition != "" {
		prog, err := query.Compile(p.Condition)
		if err != nil {
			return t.werr(op, err)
		}
		ctl.cond = prog
	}
	switch p.Kind {
	case core.ProbeLine:
		t.lineBPs = append(t.lineBPs, lineBP{line: p.Line, maxDepth: p.MaxDepth, probeCtl: ctl})
	case core.ProbeFunc:
		t.funcBPs = append(t.funcBPs, funcBP{name: p.Function, maxDepth: p.MaxDepth, probeCtl: ctl})
	case core.ProbeTrack:
		t.tracked[p.Function] = &trackInfo{probeCtl: ctl}
	case core.ProbeWatch:
		t.watches = append(t.watches, &traceWatch{id: p.VarID, probeCtl: ctl})
		t.obs.Gauge(core.GaugeWatches).Set(int64(len(t.watches)))
	default:
		return t.werr(op, core.ErrUnsupported)
	}
	return nil
}

// ConditionalProbes advertises the ConditionalBreaker capability.
func (t *Tracker) ConditionalProbes() bool { return true }

// BreakBeforeLine arms a replay breakpoint on a source line. Equivalent to
// Arm(core.LineProbe(file, line, opts...)).
func (t *Tracker) BreakBeforeLine(file string, line int, opts ...core.BreakOption) error {
	return t.Arm(core.LineProbe(file, line, opts...))
}

// BreakBeforeFunc arms a replay breakpoint on function entry; only
// functions whose calls were recorded can fire. Equivalent to
// Arm(core.FuncProbe(name, opts...)).
func (t *Tracker) BreakBeforeFunc(name string, opts ...core.BreakOption) error {
	return t.Arm(core.FuncProbe(name, opts...))
}

// TrackFunction pauses at recorded entries/exits of the named function.
// Equivalent to Arm(core.TrackProbe(name, opts...)).
func (t *Tracker) TrackFunction(name string, opts ...core.BreakOption) error {
	return t.Arm(core.TrackProbe(name, opts...))
}

// Watch pauses when the identified variable's recorded value changes
// between consecutive steps. Equivalent to
// Arm(core.WatchProbe(varID, opts...)).
func (t *Tracker) Watch(varID string, opts ...core.BreakOption) error {
	return t.Arm(core.WatchProbe(varID, opts...))
}

// PauseReason reports why the replay is paused.
func (t *Tracker) PauseReason() core.PauseReason { return t.reason }

// ExitCode reports the recorded exit status once the replay finished.
func (t *Tracker) ExitCode() (int, bool) {
	if !t.exited {
		return 0, false
	}
	return t.src.exitCode(), true
}

// state reconstructs (or fetches) the current step's snapshot.
func (t *Tracker) state() (*core.State, error) {
	st, err := t.src.stateAt(t.pos)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("tracetracker: step %d has no recorded state", t.pos)
	}
	return st, nil
}

// CurrentFrame returns the recorded frame at the current step.
func (t *Tracker) CurrentFrame() (*core.Frame, error) {
	if err := t.controlOK(); err != nil {
		return nil, t.werr("CurrentFrame", err)
	}
	st, err := t.state()
	if err != nil {
		return nil, err
	}
	if st.Frame == nil {
		return nil, fmt.Errorf("tracetracker: step %d has no recorded state", t.pos)
	}
	return st.Frame, nil
}

// GlobalVariables returns the recorded globals at the current step.
func (t *Tracker) GlobalVariables() ([]*core.Variable, error) {
	if err := t.controlOK(); err != nil {
		return nil, t.werr("GlobalVariables", err)
	}
	st, err := t.state()
	if err != nil {
		return nil, err
	}
	return st.Globals, nil
}

// State returns the recorded snapshot at the current step.
func (t *Tracker) State() (*core.State, error) {
	if err := t.controlOK(); err != nil {
		return nil, t.werr("State", err)
	}
	return t.src.stateAt(t.pos)
}

// Position returns the replay's current source position.
func (t *Tracker) Position() (string, int) {
	if !t.started || t.exited || t.pos < 0 {
		return t.fileName(), 0
	}
	return t.fileName(), t.src.line(t.pos)
}

func (t *Tracker) fileName() string {
	if t.src == nil {
		return ""
	}
	return t.src.file()
}

// LastLine returns the most recently replayed line.
func (t *Tracker) LastLine() int { return t.lastLine }

// SourceLines returns the recorded program text.
func (t *Tracker) SourceLines() ([]string, error) {
	if !t.loaded {
		return nil, t.werr("SourceLines", core.ErrNoProgram)
	}
	return strings.Split(strings.TrimRight(t.src.code(), "\n"), "\n"), nil
}

// Stdout returns the cumulative program output recorded at the current
// step (trace-specific extension).
func (t *Tracker) Stdout() string {
	if !t.started || t.pos < 0 {
		return ""
	}
	if t.exited {
		return t.src.stdoutAt(t.src.numSteps() - 1)
	}
	return t.src.stdoutAt(t.pos)
}
