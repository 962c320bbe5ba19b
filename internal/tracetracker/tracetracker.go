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
	"math"
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

// Tracker replays a recorded trace through the control/inspection API.
type Tracker struct {
	core.Arming
	// Travel is the replay's position (reverse.go); after the replay runs
	// off the end it rests on the head, the last real step.
	ttd.Travel

	// tl is the recording: a v0/v1 full-state trace or a v2 delta store.
	// file, code and exitCode are its header, read once at load.
	tl       ttd.Timeline
	file     string
	code     string
	exitCode int
	loaded   bool

	started bool
	exited  bool

	reason   core.PauseReason
	lastLine int

	// probes is the armed-probe table and its classifier; a replay owns its
	// timeline, so every landing re-baselines the watches (Land).
	probes ttd.Probes[struct{}]

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
	t := &Tracker{}
	t.Arming = core.NewArming(t)
	t.Travel = ttd.NewTravel(t)
	return t
}

// LoadTrace installs an in-memory v0/v1 trace.
func (t *Tracker) LoadTrace(tr *pt.Trace) error {
	return t.load(&v1source{tr: tr}, tr.File, tr.Code, tr.ExitCode)
}

// LoadStore installs an in-memory delta-encoded recording.
func (t *Tracker) LoadStore(s *ttd.Store) error {
	h := s.Trace()
	return t.load(s, h.File, h.Code, h.ExitCode)
}

// load installs a recording. One that does not record a step before its
// terminal "finished" step has nothing to replay.
func (t *Tracker) load(tl ttd.Timeline, file, code string, exitCode int) error {
	if tl.Len() == 0 {
		return errors.New("tracetracker: empty trace")
	}
	if tl.EventAt(0) == pt.EventFinished {
		return errors.New("tracetracker: trace records no step before it finished")
	}
	t.tl, t.file, t.code, t.exitCode = tl, file, code, exitCode
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
	t.tracer = cfg.Obs.Tracer(Kind)
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
	// Cannot fail: load rejects a trace with no step before it finished.
	_ = t.SeekTo(0)
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

// werr wraps err in the tracker's typed error (core.TrackerError), keeping
// errors.Is/errors.As against the sentinels working.
func (t *Tracker) werr(op string, err error) error {
	file, line := t.Position()
	return core.WrapErr(Kind, op, file, line, err)
}

// Resume advances to the next recorded step where an armed probe pauses.
func (t *Tracker) Resume() error { return t.run("Resume", core.OpResume, -1) }

// Step advances one recorded step, or to the probe that pauses there.
func (t *Tracker) Step() error { return t.run("Step", core.OpStep, math.MaxInt) }

// Next advances to the next step at the same or a shallower depth, or to
// an earlier step where an armed probe pauses.
func (t *Tracker) Next() error {
	depth := 0
	if t.started {
		depth = t.tl.DepthAt(t.Pos())
	}
	return t.run("Next", core.OpNext, depth)
}

// run is the one forward replay loop: it advances step by step, each
// classified by the probe table (ttd.Probes.Replay), until a probe pauses,
// a step no deeper than stopDepth stops a Step or Next, or the recording
// ends. Every recorded step is a step here, a live recording's call and
// return steps included.
func (t *Tracker) run(name, op string, stopDepth int) error {
	if err := t.controlOK(); err != nil {
		return t.werr(name, err)
	}
	sp := t.tracer.StartOp(op)
	t0 := t.obs.Now()
	for {
		t.lastLine = t.tl.LineAt(t.Pos())
		t.ctrSteps.Inc()
		if !t.Advance(t.tl) {
			t.exited = true
			t.reason = core.PauseReason{Type: core.PauseExited, ExitCode: t.exitCode}
			break
		}
		pos := t.Pos()
		if t.probes.Replay(t.tl, t.file, pos, t.tl.DepthAt(pos) <= stopDepth, &t.reason) {
			break
		}
	}
	t.obs.Observe(op, t0)
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

// Arm registers any probe kind against the replay. Conditions compile here
// so a bad expression fails the arming call with ErrBadQuery.
func (t *Tracker) Arm(p core.Probe) error {
	sp := t.tracer.Start(core.SpanArm)
	sp.Detail = p.Op()
	err := t.arm(p)
	sp.EndErr(err)
	return err
}

func (t *Tracker) arm(p core.Probe) error {
	if !t.loaded {
		return t.werr(p.Op(), core.ErrNoProgram)
	}
	g, err := query.NewGate(p.BreakConfig)
	var w *ttd.Watch[struct{}]
	if err == nil {
		w, err = t.probes.Arm(p, g)
	}
	if err != nil {
		return t.werr(p.Op(), err)
	}
	if w != nil {
		if t.started {
			w.Snap = t.tl.VarAt(t.Pos(), w.Scope, w.Name)
		}
		t.obs.Gauge(core.GaugeWatches).Set(int64(len(t.probes.Watches)))
	}
	return nil
}

// ConditionalProbes advertises the ConditionalBreaker capability.
func (t *Tracker) ConditionalProbes() bool { return true }

// PauseReason reports why the replay is paused.
func (t *Tracker) PauseReason() core.PauseReason { return t.reason }

// ExitCode reports the recorded exit status once the replay finished.
func (t *Tracker) ExitCode() (int, bool) {
	if !t.exited {
		return 0, false
	}
	return t.exitCode, true
}

// state reconstructs (or fetches) the current step's snapshot as the
// replay serves it (ttd.Served: carrying the replay's own pause reason);
// the frame and value graphs are the recording's and are read-only. Every
// failure is a TrackerError for op.
func (t *Tracker) state(op string) (*core.State, error) {
	if err := t.controlOK(); err != nil {
		return nil, t.werr(op, err)
	}
	pos := t.Pos()
	st, err := t.tl.StateAt(pos)
	if err == nil && st == nil {
		err = fmt.Errorf("tracetracker: step %d has no recorded state", pos)
	}
	if err != nil {
		return nil, t.werr(op, err)
	}
	return ttd.Served(st, t.reason), nil
}

// CurrentFrame returns the recorded frame at the current step.
func (t *Tracker) CurrentFrame() (*core.Frame, error) {
	st, err := t.state("CurrentFrame")
	if err != nil {
		return nil, err
	}
	if st.Frame == nil {
		return nil, t.werr("CurrentFrame", fmt.Errorf("tracetracker: step %d has no recorded frame", t.Pos()))
	}
	return st.Frame, nil
}

// GlobalVariables returns the recorded globals at the current step.
func (t *Tracker) GlobalVariables() ([]*core.Variable, error) {
	st, err := t.state("GlobalVariables")
	if err != nil {
		return nil, err
	}
	return st.Globals, nil
}

// State returns the recorded snapshot at the current step.
func (t *Tracker) State() (*core.State, error) { return t.state("State") }

// Position returns the replay's current source position.
func (t *Tracker) Position() (string, int) {
	if !t.started || t.exited {
		return t.file, 0
	}
	return t.file, t.tl.LineAt(t.Pos())
}

// LastLine returns the most recently replayed line.
func (t *Tracker) LastLine() int { return t.lastLine }

// SourceLines returns the recorded program text.
func (t *Tracker) SourceLines() ([]string, error) {
	if !t.loaded {
		return nil, t.werr("SourceLines", core.ErrNoProgram)
	}
	return strings.Split(strings.TrimRight(t.code, "\n"), "\n"), nil
}

// Stdout returns the cumulative program output recorded at the current
// step (trace-specific extension).
func (t *Tracker) Stdout() string {
	if !t.started {
		return ""
	}
	if t.exited {
		return t.tl.StdoutAt(t.tl.Len() - 1)
	}
	return t.tl.StdoutAt(t.Pos())
}
