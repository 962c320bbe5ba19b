package core

import "easytracker/internal/obs"

// This file is the observability seam of the tracker contract: the load
// options that turn instrumentation on, the capability interfaces tools use
// to read it back, and the canonical instrument names shared by every
// tracker kind so snapshots from "minipy" and "minigdb" line up.

// ObsConfig carries the observability options of LoadProgram.
type ObsConfig struct {
	// Enabled turns on op counters, latency histograms and gauges.
	Enabled bool
	// Events sizes the flight recorder (retained events); zero picks the
	// tracker's default (obs.DefaultEvents for trackers that record).
	Events int
	// Spans sizes the span ring (retained completed spans); zero leaves span
	// tracing off unless SpanSink is set. Span tracing is independent of
	// Enabled — spans answer "what happened inside this op", metrics answer
	// "how often and how long on average".
	Spans int
	// SpanSink, when non-nil, makes the tracker publish its spans into this
	// shared ring instead of allocating its own — how the remote server
	// funnels every session backend into one /spans dump. Takes precedence
	// over Spans.
	SpanSink *obs.SpanRing
}

// ObsOption customizes WithObservability.
type ObsOption func(*ObsConfig)

// WithFlightRecorder sizes the flight recorder to retain the last n events.
func WithFlightRecorder(n int) ObsOption {
	return func(c *ObsConfig) { c.Events = n }
}

// WithSpanTracing turns on span tracing with a ring retaining the last n
// completed spans (obs.DefaultSpanCapacity when n <= 0). Every tracker op
// (Start/Resume/Step/Next/Arm/State) becomes a span; nested work (MI round
// trips, remote wire calls) links to the op that caused it by trace id.
// Read spans back with easytracker.Spans.
func WithSpanTracing(n int) ObsOption {
	return func(c *ObsConfig) {
		if n <= 0 {
			n = obs.DefaultSpanCapacity
		}
		c.Spans = n
	}
}

// WithSpanSink routes the tracker's spans into an existing shared ring.
// Used by embedders that aggregate several trackers into one timeline (the
// remote server injects its own ring into every session backend); most
// callers want WithObservability(WithSpanTracing(n)) instead. A nil ring is
// ignored. Note this is a LoadOption, not an ObsOption: it does not flip
// metrics on.
func WithSpanSink(ring *obs.SpanRing) LoadOption {
	return func(c *LoadConfig) {
		if ring != nil {
			c.Obs.SpanSink = ring
		}
	}
}

// WithObservability enables the tracker's instrumentation: op counters and
// latency histograms (Start/Resume/Step/Next, watch checks, MI round trips),
// gauges, and the flight recorder of the most recent tracker/MI events.
// Read the panel back with easytracker.Stats. Off by default; the disabled
// instrumentation costs one pointer test per sample point.
func WithObservability(opts ...ObsOption) LoadOption {
	return func(c *LoadConfig) {
		c.Obs.Enabled = true
		for _, o := range opts {
			o(&c.Obs)
		}
	}
}

// StatsProvider is implemented by trackers that expose their instrument
// panel. All built-in trackers do; with observability off the snapshot is
// mostly empty (the MiniGDB tracker still carries flight-recorder events,
// which are always on — a flight recorder that is off when the session
// crashes records nothing useful).
type StatsProvider interface {
	// Stats returns the JSON-serializable instrument snapshot.
	Stats() *obs.Snapshot
}

// MetricsSource is implemented by trackers that let wrappers (AsyncTracker,
// middleware) report into the same instrument panel.
type MetricsSource interface {
	// ObsMetrics returns the live metrics, or nil when observability is
	// off.
	ObsMetrics() *obs.Metrics
}

// SpanProvider is implemented by trackers that expose their completed-span
// ring. All built-in trackers do; with span tracing off the dump is nil.
type SpanProvider interface {
	// Spans returns the retained completed spans, ordered by start time.
	Spans() []obs.SpanRecord
}

// SpanTracerSource is implemented by trackers that let embedders reach the
// live tracer — the remote server uses it to stamp the executor span as the
// ambient parent before running a backend op, so the backend's spans nest
// under the request that caused them.
type SpanTracerSource interface {
	// SpanTracer returns the live tracer, or nil when span tracing is off.
	SpanTracer() *obs.Tracer
}

// Canonical instrument names. Trackers use these so tools can read one
// snapshot schema across tracker kinds.
const (
	// Op latency histograms (per control/inspection operation).
	OpStart      = "op.start"
	OpResume     = "op.resume"
	OpStep       = "op.step"
	OpNext       = "op.next"
	OpWatchCheck = "op.watch_check" // per-line watchpoint sweep (MiniPy)
	OpMIRound    = "mi.round_trip"  // one MI command round trip (MiniGDB)
	OpStateFetch = "op.state_fetch" // full snapshot fetch/convert

	// Counters.
	CtrPauses         = "pauses"
	CtrWatchHits      = "watch_hits"
	CtrLinesTraced    = "lines_traced"    // trace-hook line events (MiniPy)
	CtrStepsReplayed  = "steps_replayed"  // trace replay advances
	CtrMICommands     = "mi.commands"     // MI commands issued
	CtrMIErrors       = "mi.errors"       // MI transport/record failures
	CtrSnapshotHits   = "snapshot.hits"   // pause-scoped state cache hits
	CtrSnapshotMisses = "snapshot.misses" // full state conversions/transfers
	CtrRecoveries     = "session.recoveries"
	CtrLostItems      = "session.lost_items"
	CtrInterrupts     = "exec.interrupts"   // delivered interrupts (incl. deadlines)
	CtrBudgetTrips    = "exec.budget_trips" // resource budgets tripped

	// Gauges.
	GaugeAsyncQueue  = "async.queue_depth" // pending AsyncTracker commands
	GaugeJournalSize = "session.journal"   // armed ops the journal replays
	GaugeWatches     = "watches.armed"

	// Remote-session server instruments (internal/remote.Server).
	OpRemoteRound       = "remote.round_trip"          // one request executed server-side
	CtrRemoteFramesIn   = "remote.frames_in"           // wire frames received
	CtrRemoteFramesOut  = "remote.frames_out"          // wire frames sent
	CtrRemoteSessions   = "remote.sessions_opened"     // sessions ever admitted
	CtrRemoteEvictions  = "remote.sessions_evicted"    // idle sessions evicted
	CtrRemoteRefusals   = "remote.sessions_refused"    // hellos refused (full/draining)
	CtrRemoteFiltered   = "remote.pauses_filtered"     // pauses swallowed by a subscription
	GaugeRemoteSessions = "remote.sessions_active"     // live sessions
	CtrRemoteHBEvicts   = "remote.heartbeat_evictions" // silent peers evicted by missed beats

	// Remote-session client instruments (internal/remote.Tracker).
	CtrRemoteRedials       = "remote.redials"        // redial attempts (per attempt, not per outage)
	CtrRemoteRedialGiveups = "remote.redial_giveups" // outages the policy gave up on
)

// Canonical span names. Backend op spans reuse the histogram names above
// (OpStart, OpResume, ...); these cover the layers without a histogram
// counterpart.
const (
	// SpanArm times one Arm call; Detail carries the probe description.
	SpanArm = "op.arm"
	// SpanRPCPrefix + op names a server-side executor span ("rpc.resume").
	SpanRPCPrefix = "rpc."
	// SpanCallPrefix + op names a client-side wire round trip
	// ("remote.call.resume").
	SpanCallPrefix = "remote.call."
)

// StatsOf returns tr's instrument snapshot through the capability chain
// (wrappers implementing TrackerUnwrapper are seen through). ok is false
// when tr does not expose an instrument panel; the returned snapshot is
// then empty but non-nil, so tools can render it unconditionally.
func StatsOf(tr Tracker) (*obs.Snapshot, bool) {
	sp, ok := As[StatsProvider](tr)
	if !ok {
		return &obs.Snapshot{}, false
	}
	return sp.Stats(), true
}

// SpansOf returns tr's completed spans through the capability chain. ok is
// false when tr exposes no span ring; with span tracing off the slice is
// nil either way.
func SpansOf(tr Tracker) ([]obs.SpanRecord, bool) {
	sp, ok := As[SpanProvider](tr)
	if !ok {
		return nil, false
	}
	return sp.Spans(), true
}
