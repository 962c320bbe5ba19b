package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// A nil *Metrics is the "observability off" representation: every
	// method must no-op or return zero values without panicking.
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil metrics reports enabled")
	}
	if !m.Now().IsZero() {
		t.Fatal("nil metrics read the clock")
	}
	m.Observe("op", time.Now())
	m.Event("kind", "detail")
	if d := m.EventDump(); d != nil {
		t.Fatalf("nil metrics dump = %v", d)
	}
	if s := m.Snapshot(); s == nil || s.Enabled {
		t.Fatalf("nil metrics snapshot = %+v", s)
	}

	var c *Counter
	c.Inc()
	var g *Gauge
	g.Add(3)
	g.Set(7)
	var h *Histogram
	h.Observe(time.Millisecond)
	var r *FlightRecorder
	r.Record("k", "d")
	if r.Snapshot() != nil || r.Dump() != nil || r.Total() != 0 || r.Cap() != 0 {
		t.Fatal("nil recorder not inert")
	}
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments not inert")
	}
}

func TestDisabledMetricsStayQuiet(t *testing.T) {
	m := New(Config{Enabled: false})
	if m.Counter("x") != nil || m.Gauge("x") != nil || m.Hist("x") != nil {
		t.Fatal("disabled metrics handed out instruments")
	}
	if !m.Now().IsZero() {
		t.Fatal("disabled metrics read the clock")
	}
	m.Observe("op", time.Time{})
	s := m.Snapshot()
	if s.Enabled || len(s.Counters) != 0 || len(s.Ops) != 0 {
		t.Fatalf("disabled snapshot = %+v", s)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	m := New(Config{Enabled: true})
	m.Counter("lines").Add(10)
	m.Counter("lines").Inc()
	if got := m.Counter("lines").Value(); got != 11 {
		t.Fatalf("counter = %d", got)
	}

	g := m.Gauge("depth")
	g.Add(2)
	g.Add(3)
	g.Add(-4)
	if g.Value() != 1 || g.Max() != 5 {
		t.Fatalf("gauge = %d max %d, want 1 max 5", g.Value(), g.Max())
	}
	g.Set(2)
	if g.Value() != 2 || g.Max() != 5 {
		t.Fatalf("gauge after set = %d max %d", g.Value(), g.Max())
	}

	h := m.Hist("op.step")
	for _, d := range []time.Duration{time.Microsecond, 3 * time.Microsecond, 100 * time.Microsecond} {
		h.Observe(d)
	}
	st := h.Stats()
	if st.Count != 3 {
		t.Fatalf("hist count = %d", st.Count)
	}
	if st.MinNs != 1000 || st.MaxNs != 100000 {
		t.Fatalf("hist min/max = %d/%d", st.MinNs, st.MaxNs)
	}
	if want := uint64((1000 + 3000 + 100000) / 3); st.MeanNs != want {
		t.Fatalf("hist mean = %d, want %d", st.MeanNs, want)
	}
	var total uint64
	for _, b := range st.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("bucket total = %d", total)
	}
	// Buckets are sorted and bounded.
	for i := 1; i < len(st.Buckets); i++ {
		if st.Buckets[i].LeNs <= st.Buckets[i-1].LeNs {
			t.Fatalf("buckets out of order: %+v", st.Buckets)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Second) // beyond the last bucket bound
	st := h.Stats()
	if st.Count != 1 || len(st.Buckets) != 1 {
		t.Fatalf("overflow stats = %+v", st)
	}
}

func TestObserveTimerPair(t *testing.T) {
	m := New(Config{Enabled: true})
	t0 := m.Now()
	if t0.IsZero() {
		t.Fatal("enabled metrics returned zero timer")
	}
	m.Observe("op.resume", t0)
	if got := m.Hist("op.resume").Count(); got != 1 {
		t.Fatalf("observations = %d", got)
	}
	// A zero start (timer taken while disabled) records nothing.
	m.Observe("op.resume", time.Time{})
	if got := m.Hist("op.resume").Count(); got != 1 {
		t.Fatalf("zero-start observation recorded: %d", got)
	}
}

// nthEvent is a lazily rendered event's payload in the tests below.
type nthEvent struct{ who, n int }

func (e nthEvent) String() string {
	if e.who < 0 {
		return fmt.Sprintf("event %d", e.n)
	}
	return fmt.Sprintf("producer %d event %d", e.who, e.n)
}

// TestFlightRecorderOrderAndWraparound alternates events recorded as text
// with events recorded lazily: both read back the same way.
func TestFlightRecorderOrderAndWraparound(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		if i%2 == 0 {
			RecordLazy(r, "k", nthEvent{-1, i})
		} else {
			r.Record("k", fmt.Sprintf("event %d", i))
		}
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := uint64(7 + i)
		if ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
		if ev.Detail != fmt.Sprintf("event %d", want) {
			t.Fatalf("event detail = %q", ev.Detail)
		}
		if ev.AtNs < 0 {
			t.Fatalf("negative relative timestamp %d", ev.AtNs)
		}
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].AtNs < evs[i-1].AtNs {
			t.Fatalf("timestamps not monotone: %v", evs)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
	dump := r.Dump()
	if len(dump) != 4 || !strings.Contains(dump[3], "event 10") {
		t.Fatalf("dump = %v", dump)
	}
}

// TestFlightRecorderConcurrentProducers hammers a small ring from many
// goroutines under -race, half of them recording lazily: every published
// entry must be intact (the slot store is atomic, entries are immutable)
// and snapshots taken mid-flight must stay ordered.
func TestFlightRecorderConcurrentProducers(t *testing.T) {
	r := NewFlightRecorder(8)
	const producers = 8
	const perProducer = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := r.Snapshot()
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq <= evs[i-1].Seq {
					t.Error("snapshot out of order")
					return
				}
			}
		}
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if p%2 == 0 {
					RecordLazy(r, "p", nthEvent{p, i})
				} else {
					r.Record("p", nthEvent{p, i}.String())
				}
			}
		}(p)
	}
	// Give the reader its stop signal once every producer has published.
	deadline := time.After(10 * time.Second)
	for r.Total() < producers*perProducer {
		select {
		case <-deadline:
			t.Fatalf("recorded %d/%d events", r.Total(), producers*perProducer)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("retained %d, want 8", len(evs))
	}
	// The retained tail is from the very end of the run.
	if evs[len(evs)-1].Seq != producers*perProducer {
		t.Fatalf("last seq = %d, want %d", evs[len(evs)-1].Seq, producers*perProducer)
	}
	for _, ev := range evs {
		if !strings.HasPrefix(ev.Detail, "producer ") {
			t.Fatalf("torn event %+v", ev)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := New(Config{Enabled: true, Events: 4})
	m.Counter("pauses").Add(3)
	m.Gauge("queue").Add(2)
	m.Hist("op.step").Observe(42 * time.Microsecond)
	m.Event("pause", "step at line 3")
	s := m.Snapshot()
	s.Tracker = "minipy"

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tracker != "minipy" || !back.Enabled {
		t.Fatalf("round trip lost header: %+v", back)
	}
	if back.Counters["pauses"] != 3 || back.Gauges["queue"].Max != 2 {
		t.Fatalf("round trip lost instruments: %s", data)
	}
	if back.Ops["op.step"].Count != 1 || len(back.Events) != 1 {
		t.Fatalf("round trip lost ops/events: %s", data)
	}
	if got := back.OpNames(); len(got) != 1 || got[0] != "op.step" {
		t.Fatalf("op names = %v", got)
	}
}

func TestMetricsConcurrentRegistry(t *testing.T) {
	// Concurrent get-or-create against the same names must hand back the
	// same instrument (run under -race).
	m := New(Config{Enabled: true, Events: 16})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				m.Counter("shared").Inc()
				m.Gauge("g").Add(1)
				m.Gauge("g").Add(-1)
				m.Hist("h").Observe(time.Microsecond)
				m.Event("e", "x")
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("shared").Value(); got != 1600 {
		t.Fatalf("counter = %d", got)
	}
	if got := m.Hist("h").Count(); got != 1600 {
		t.Fatalf("hist = %d", got)
	}
	if m.Gauge("g").Value() != 0 {
		t.Fatalf("gauge = %d", m.Gauge("g").Value())
	}
}
