// Package obs is the instrumentation core shared by every tracker kind:
// atomic counters, gauges with high watermarks, bounded latency histograms,
// and a lock-cheap ring-buffer flight recorder of the most recent tracker
// and MI events (recorder.go). A Metrics value owns one of each and renders
// them as a JSON-serializable Snapshot (snapshot.go).
//
// The package is stdlib-only and designed around two cost tiers:
//
//   - Disabled (the default): trackers hold a nil *Metrics, or one with
//     Enabled false. Every method tolerates a nil receiver and the timing
//     helpers return zero values without reading the clock, so the
//     instrumented code paths pay one pointer/bool test and nothing else
//     (BenchmarkResumeWithWatchpointMiniPy guards this).
//   - Enabled (core.WithObservability): op latencies are measured with two
//     clock reads and recorded lock-free into fixed histogram buckets; the
//     flight recorder claims its slot with one atomic add.
//
// Mutation is safe for concurrent producers (the inferior goroutine, the
// tool goroutine and AsyncTracker's owner goroutine all report into the same
// Metrics); Snapshot may run concurrently with producers and sees a
// consistent, if slightly torn, view.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Safe on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, journal size) that also
// remembers its high watermark.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Add moves the gauge by delta, updating the high watermark. Safe on a nil
// receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	v := g.v.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Set forces the gauge to v, updating the high watermark. Safe on a nil
// receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level. Safe on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high watermark. Safe on a nil receiver.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// histBuckets bounds the latency histogram: bucket i counts observations in
// [2^i, 2^(i+1)) nanoseconds, with the last bucket absorbing everything
// longer (2^30 ns ≈ 1.07 s).
const histBuckets = 31

// Histogram is a bounded latency histogram over power-of-two nanosecond
// buckets, plus count/sum/min/max. All updates are lock-free.
type Histogram struct {
	count   atomic.Uint64
	sumNs   atomic.Uint64
	minNs   atomic.Uint64 // offset by +1 so zero means "no observation"
	maxNs   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Safe on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(max(d.Nanoseconds(), 0))
	h.count.Add(1)
	h.sumNs.Add(ns)
	i := bits.Len64(ns)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	for {
		m := h.minNs.Load()
		if (m != 0 && ns+1 >= m) || h.minNs.CompareAndSwap(m, ns+1) {
			break
		}
	}
	for {
		m := h.maxNs.Load()
		if ns <= m || h.maxNs.CompareAndSwap(m, ns) {
			break
		}
	}
}

// Count returns the number of observations. Safe on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Config sizes a Metrics value.
type Config struct {
	// Enabled turns the counters, gauges and histograms on. The flight
	// recorder is independent: it runs whenever Events > 0.
	Enabled bool
	// Events is the flight-recorder capacity (number of retained events);
	// zero disables the recorder.
	Events int
}

// DefaultEvents is the flight-recorder capacity used when observability is
// requested without an explicit size — "the last 64 events before death".
const DefaultEvents = 64

// Metrics is one tracker's instrument panel. The zero value is unusable;
// construct with New. All methods tolerate a nil receiver, which is the
// representation of "observability off" used by trackers whose hot paths
// cannot afford even a disabled-flag test per sample point.
type Metrics struct {
	enabled bool
	start   time.Time
	rec     *FlightRecorder

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New builds a Metrics value for one tracker instance.
func New(cfg Config) *Metrics {
	m := &Metrics{
		enabled:  cfg.Enabled,
		start:    time.Now(),
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
	if cfg.Events > 0 {
		m.rec = NewFlightRecorder(cfg.Events)
	}
	return m
}

// Enabled reports whether the metric instruments are on. Safe on a nil
// receiver.
func (m *Metrics) Enabled() bool { return m != nil && m.enabled }

// Recorder returns the flight recorder, or nil when event recording is off.
// Safe on a nil receiver.
func (m *Metrics) Recorder() *FlightRecorder {
	if m == nil {
		return nil
	}
	return m.rec
}

// Counter returns the named counter, creating it on first use. Returns nil
// (whose methods no-op) when metrics are off.
func (m *Metrics) Counter(name string) *Counter {
	if !m.Enabled() {
		return nil
	}
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = new(Counter)
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil when
// metrics are off.
func (m *Metrics) Gauge(name string) *Gauge {
	if !m.Enabled() {
		return nil
	}
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g == nil {
		g = new(Gauge)
		m.gauges[name] = g
	}
	return g
}

// Hist returns the named latency histogram, creating it on first use.
// Returns nil when metrics are off.
func (m *Metrics) Hist(name string) *Histogram {
	if !m.Enabled() {
		return nil
	}
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		h = new(Histogram)
		m.hists[name] = h
	}
	return h
}

// Now reads the clock for an op timer, or returns the zero time without
// touching the clock when metrics are off — the pair of Now/Observe calls is
// the standard sample point:
//
//	t0 := m.Now()
//	... do the operation ...
//	m.Observe("op.resume", t0)
func (m *Metrics) Now() time.Time {
	if !m.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// Observe records the elapsed time since t0 into the named histogram; a zero
// t0 (metrics were off when the timer started) records nothing.
func (m *Metrics) Observe(name string, t0 time.Time) {
	if !m.Enabled() || t0.IsZero() {
		return
	}
	m.Hist(name).Observe(time.Since(t0))
}

// Event appends one event to the flight recorder (no-op without one). Safe
// on a nil receiver.
func (m *Metrics) Event(kind, detail string) {
	if m == nil || m.rec == nil {
		return
	}
	m.rec.Record(kind, detail)
}

// EventDump renders the flight recorder's retained events, oldest first.
// Safe on a nil receiver; nil when event recording is off or empty.
func (m *Metrics) EventDump() []string {
	if m == nil || m.rec == nil {
		return nil
	}
	return m.rec.Dump()
}
