package obs

import (
	"cmp"
	"sync/atomic"
	"time"
)

// This file is the span-tracing half of the instrumentation core: where the
// metrics side (obs.go) answers "how often and how long on average", spans
// answer "what exactly happened inside THIS slow Resume" — one record per
// completed operation, linked into a tree by 64-bit trace/span/parent ids
// that survive serialization across the remote wire. Completed spans are
// published into the flight recorder's kind of lock-free ring (ring.go),
// and every method tolerates a nil receiver so the disabled path
// costs one pointer test and zero allocations
// (BenchmarkResumeWithWatchpointMiniPy guards this).
//
// Id model (the usual distributed-tracing shape, cut down to what a tracker
// fleet needs):
//
//   - TraceID identifies one end-to-end operation: a tool's Resume call, and
//     everything it causes — the wire round trip, the server-side executor,
//     the backend tracker op, its MI round trips.
//   - SpanID identifies one timed unit inside the trace; Parent is the
//     SpanID of the unit that caused it (zero for the root).
//
// Ids are generated from a per-process seed mixed through splitmix64, so
// spans minted by different processes (client and et-serve) never collide
// when their dumps are merged into one timeline.

// SpanContext identifies one span within a trace — what crosses process
// boundaries (the remote wire's frame header) to parent remote work onto
// its cause. The zero value means "no context".
type SpanContext struct {
	TraceID uint64 `json:"trace"`
	SpanID  uint64 `json:"span"`
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// SpanRecord is one completed span as retained in the ring and exported by
// dumps. Times are wall-clock (StartUnixNs) plus a monotonic duration, so
// records from different processes merge onto one timeline.
type SpanRecord struct {
	TraceID uint64 `json:"trace"`
	SpanID  uint64 `json:"span"`
	Parent  uint64 `json:"parent,omitempty"`
	// Proc labels the component that produced the span ("minipy",
	// "et-serve", "remote[minipy]") — the process lane in a merged timeline.
	Proc string `json:"proc,omitempty"`
	// Name is the canonical operation name ("op.resume", "rpc.resume",
	// "mi.round_trip"); Detail carries the operation-specific payload (the
	// MI command, the armed probe).
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	// Err is the error the operation returned, when it returned one.
	Err         string `json:"err,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
}

// spanSeed spreads this process's span ids across the 64-bit space so
// dumps from separate processes merge without id collisions.
var spanSeed = uint64(time.Now().UnixNano())

var spanCounter atomic.Uint64

// newSpanID mints a process-unique 64-bit id (splitmix64 over a seeded
// counter; never zero — zero means "absent" everywhere).
func newSpanID() uint64 {
	for {
		z := spanSeed + spanCounter.Add(1)*0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// SpanRing retains the last N completed spans in a lock-free ring. Multiple
// tracers may share one ring (the remote server shares its ring with every
// session backend so one /spans dump shows the whole process).
type SpanRing struct {
	ring ring[SpanRecord]
}

// DefaultSpanCapacity sizes a span ring when no explicit capacity is given:
// enough to hold a few hundred request trees without growing unbounded.
const DefaultSpanCapacity = 1024

// NewSpanRing builds a ring retaining the last n spans (n >= 1).
func NewSpanRing(n int) *SpanRing {
	r := &SpanRing{}
	r.ring.init(n)
	return r
}

// Cap returns the number of retained spans. Safe on a nil receiver.
func (r *SpanRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring.slots)
}

// Total returns how many spans were ever published (retained or wrapped
// over). Safe on a nil receiver.
func (r *SpanRing) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.seq.Load()
}

// publish stores one completed record, overwriting the oldest when full.
func (r *SpanRing) publish(rec *SpanRecord) {
	if r == nil {
		return
	}
	r.ring.put(r.ring.claim(), rec)
}

// Snapshot returns the retained spans ordered by start time (ties broken by
// span id for a stable order). Entries being overwritten concurrently may be
// skipped, never torn.
func (r *SpanRing) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	return r.ring.snapshot(func(a, b SpanRecord) int {
		return cmp.Or(cmp.Compare(a.StartUnixNs, b.StartUnixNs), cmp.Compare(a.SpanID, b.SpanID))
	})
}

// Tracer mints spans for one component and publishes them into a ring. A
// nil Tracer is the canonical "span tracing off": every method no-ops after
// one pointer test and Start returns an inert Span whose End is free.
//
// A Tracer additionally carries the ambient parent context used by StartOp:
// the remote server stamps the executor span's context here before running a
// backend op, so the backend's spans nest under the request that caused
// them. The ambient parent is owned by the tracker's single driver goroutine
// (the Tracker contract); it is not synchronized.
type Tracer struct {
	proc   string
	ring   *SpanRing
	parent SpanContext
}

// NewTracer builds a tracer with its own ring of the given capacity
// (DefaultSpanCapacity when n <= 0).
func NewTracer(proc string, n int) *Tracer {
	if n <= 0 {
		n = DefaultSpanCapacity
	}
	return &Tracer{proc: proc, ring: NewSpanRing(n)}
}

// NewTracerOn builds a tracer publishing into an existing shared ring — how
// the remote server funnels every session backend's spans into one dump.
func NewTracerOn(proc string, ring *SpanRing) *Tracer {
	if ring == nil {
		return nil
	}
	return &Tracer{proc: proc, ring: ring}
}

// Ring returns the ring this tracer publishes into. Safe on a nil receiver.
func (t *Tracer) Ring() *SpanRing {
	if t == nil {
		return nil
	}
	return t.ring
}

// Spans returns the completed spans retained in the tracer's ring, ordered
// by start time. Safe on a nil receiver.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// SetParent installs the ambient parent context adopted by subsequent
// Start/StartOp calls (zero clears it). Driver goroutine only; safe on a
// nil receiver.
func (t *Tracer) SetParent(ctx SpanContext) {
	if t == nil {
		return
	}
	t.parent = ctx
}

// Parent returns the ambient parent context. Safe on a nil receiver.
func (t *Tracer) Parent() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return t.parent
}

// Span is one in-flight timed unit, returned by value so the disabled path
// allocates nothing. Detail may be stamped any time before End.
type Span struct {
	t      *Tracer
	ctx    SpanContext
	parent uint64
	name   string
	prev   SpanContext // ambient parent to restore (StartOp only)
	scoped bool
	start  time.Time
	Detail string
}

// Context returns the span's identifying context (zero for an inert span).
func (s *Span) Context() SpanContext { return s.ctx }

// start builds a live span under the given parent.
func (t *Tracer) startSpan(name string, parent SpanContext) Span {
	sp := Span{t: t, name: name, start: time.Now()}
	if parent.TraceID != 0 {
		sp.ctx.TraceID = parent.TraceID
		sp.parent = parent.SpanID
	} else {
		sp.ctx.TraceID = newSpanID()
	}
	sp.ctx.SpanID = newSpanID()
	return sp
}

// Start begins a leaf span under the ambient parent (a new root trace when
// none is set). Safe on a nil receiver, which returns an inert span.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.startSpan(name, t.parent)
}

// StartChild begins a span under an explicit parent context — how the
// remote server parents its executor span onto the client span carried in
// the frame header. Safe for concurrent use (it never touches the ambient
// parent), and safe on a nil receiver.
func (t *Tracer) StartChild(name string, parent SpanContext) Span {
	if t == nil {
		return Span{}
	}
	return t.startSpan(name, parent)
}

// StartOp begins an operation span and makes it the ambient parent, so
// nested spans started before End (MI round trips inside a Resume) link to
// it; End restores the previous ambient parent. Driver goroutine only; safe
// on a nil receiver.
func (t *Tracer) StartOp(name string) Span {
	if t == nil {
		return Span{}
	}
	sp := t.startSpan(name, t.parent)
	sp.prev = t.parent
	sp.scoped = true
	t.parent = sp.ctx
	return sp
}

// End completes the span and publishes its record; inert spans return after
// one pointer test.
func (s *Span) End() { s.EndErr(nil) }

// EndErr completes the span recording the operation's error (nil for
// success). Inert spans return after one pointer test.
func (s *Span) EndErr(err error) {
	if s.t == nil {
		return
	}
	if s.scoped {
		s.t.parent = s.prev
	}
	rec := &SpanRecord{
		TraceID:     s.ctx.TraceID,
		SpanID:      s.ctx.SpanID,
		Parent:      s.parent,
		Proc:        s.t.proc,
		Name:        s.name,
		Detail:      s.Detail,
		StartUnixNs: s.start.UnixNano(),
		DurNs:       time.Since(s.start).Nanoseconds(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.t.ring.publish(rec)
}
