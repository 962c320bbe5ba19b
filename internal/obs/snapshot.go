package obs

import (
	"sort"
	"time"
)

// Snapshot is the JSON-serializable export of one Metrics value — what
// easytracker.Stats returns and what the -stats CLI flags print.
type Snapshot struct {
	// Tracker is the tracker kind that produced the snapshot ("minipy",
	// "minigdb", "trace", or "" for non-tracker instrument panels).
	Tracker string `json:"tracker,omitempty"`
	// Enabled reports whether the metric instruments were on; a disabled
	// snapshot may still carry flight-recorder events.
	Enabled bool `json:"enabled"`
	// UptimeNs is the time since the Metrics value was created.
	UptimeNs int64 `json:"uptime_ns,omitempty"`
	// Counters, Gauges and Ops hold the named instruments.
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]GaugeStats   `json:"gauges,omitempty"`
	Ops      map[string]LatencyStats `json:"ops,omitempty"`
	// Events is the flight recorder's retained tail, oldest first;
	// EventsDropped counts the older events the ring wrapped over.
	Events        []Event `json:"events,omitempty"`
	EventsDropped uint64  `json:"events_dropped,omitempty"`
}

// GaugeStats is the exported form of a Gauge.
type GaugeStats struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// LatencyStats is the exported form of a Histogram.
type LatencyStats struct {
	Count  uint64 `json:"count"`
	SumNs  uint64 `json:"sum_ns"`
	MinNs  uint64 `json:"min_ns"`
	MaxNs  uint64 `json:"max_ns"`
	MeanNs uint64 `json:"mean_ns"`
	// P50Ns, P90Ns and P99Ns are quantile estimates interpolated within the
	// power-of-two buckets and clamped to [MinNs, MaxNs]; exact only up to
	// the bucket resolution (a bucket spans a factor of two).
	P50Ns uint64 `json:"p50_ns,omitempty"`
	P90Ns uint64 `json:"p90_ns,omitempty"`
	P99Ns uint64 `json:"p99_ns,omitempty"`
	// Buckets lists the non-empty power-of-two latency buckets.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket counts
// by linear interpolation within the bucket holding the target rank, clamped
// to the observed [MinNs, MaxNs] range. Returns 0 when the histogram is
// empty.
func (s *LatencyStats) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Buckets) == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	// Target rank, 1-based: the smallest rank whose cumulative count covers
	// the q fraction of observations.
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) || rank == 0 {
		rank++
	}
	var cum uint64
	for _, b := range s.Buckets {
		if cum+b.Count < rank {
			cum += b.Count
			continue
		}
		// Bucket i covers [ (LeNs+1)/2, LeNs ] (bucket 0 is exactly 0ns).
		lo := (b.LeNs + 1) / 2
		hi := b.LeNs
		est := lo
		if b.Count > 0 && hi > lo {
			frac := float64(rank-cum) / float64(b.Count)
			est = lo + uint64(frac*float64(hi-lo))
		}
		if est < s.MinNs {
			est = s.MinNs
		}
		if est > s.MaxNs {
			est = s.MaxNs
		}
		return est
	}
	return s.MaxNs
}

// Bucket is one non-empty histogram bucket: Count observations at or below
// LeNs nanoseconds (and above the previous bucket's bound).
type Bucket struct {
	LeNs  uint64 `json:"le_ns"`
	Count uint64 `json:"count"`
}

// Stats exports the histogram. Safe on a nil receiver.
func (h *Histogram) Stats() LatencyStats {
	if h == nil {
		return LatencyStats{}
	}
	s := LatencyStats{
		Count: h.count.Load(),
		SumNs: h.sumNs.Load(),
		MaxNs: h.maxNs.Load(),
	}
	if m := h.minNs.Load(); m > 0 {
		s.MinNs = m - 1
	}
	if s.Count > 0 {
		s.MeanNs = s.SumNs / s.Count
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{LeNs: 1<<uint(i) - 1, Count: n})
		}
	}
	s.P50Ns = s.Quantile(0.50)
	s.P90Ns = s.Quantile(0.90)
	s.P99Ns = s.Quantile(0.99)
	return s
}

// Snapshot exports the current instrument readings. Safe on a nil receiver,
// which yields the canonical "observability off" snapshot.
func (m *Metrics) Snapshot() *Snapshot {
	if m == nil {
		return &Snapshot{}
	}
	s := &Snapshot{
		Enabled:  m.enabled,
		UptimeNs: time.Since(m.start).Nanoseconds(),
	}
	m.mu.RLock()
	if len(m.counters) > 0 {
		s.Counters = make(map[string]uint64, len(m.counters))
		for name, c := range m.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]GaugeStats, len(m.gauges))
		for name, g := range m.gauges {
			s.Gauges[name] = GaugeStats{Value: g.Value(), Max: g.Max()}
		}
	}
	if len(m.hists) > 0 {
		s.Ops = make(map[string]LatencyStats, len(m.hists))
		for name, h := range m.hists {
			s.Ops[name] = h.Stats()
		}
	}
	m.mu.RUnlock()
	if m.rec != nil {
		s.Events = m.rec.Snapshot()
		if total := m.rec.Total(); total > uint64(len(s.Events)) {
			s.EventsDropped = total - uint64(len(s.Events))
		}
	}
	return s
}

// OpNames lists the snapshot's op histograms sorted by name (stable output
// for tools rendering the panel).
func (s *Snapshot) OpNames() []string {
	names := make([]string, 0, len(s.Ops))
	for name := range s.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
