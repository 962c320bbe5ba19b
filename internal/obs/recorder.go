package obs

import (
	"cmp"
	"fmt"
	"time"
)

// Event is one entry of the flight recorder.
type Event struct {
	// Seq numbers events from 1 in record order; gaps in a snapshot mean
	// the ring wrapped past the missing entries.
	Seq uint64 `json:"seq"`
	// AtNs is the event time relative to the recorder's creation.
	AtNs int64 `json:"at_ns"`
	// Kind classifies the event ("cmd", "pause", "mi>", "mi<", "session",
	// "lost", ...).
	Kind string `json:"kind"`
	// Detail is the human-readable payload.
	Detail string `json:"detail,omitempty"`

	// lazy, when set, renders Detail as the recorder is read.
	lazy interface{ detail() string }
}

// String renders the event the way a crash dump shows it.
func (e Event) String() string {
	return fmt.Sprintf("%+.3fms %-7s %s", float64(e.AtNs)/1e6, e.Kind, e.Detail)
}

// FlightRecorder retains the last N events in a fixed lock-free ring.
// Snapshot orders whatever is published by sequence number; an in-flight
// producer's entry may be missing, never corrupt.
type FlightRecorder struct {
	start time.Time
	ring  ring[Event]
}

// NewFlightRecorder builds a recorder retaining the last n events (n >= 1).
func NewFlightRecorder(n int) *FlightRecorder {
	r := &FlightRecorder{start: time.Now()}
	r.ring.init(n)
	return r
}

// Cap returns the number of retained events.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring.slots)
}

// Total returns how many events were ever recorded (retained or wrapped
// over). Safe on a nil receiver.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.seq.Load()
}

// Record appends one event, overwriting the oldest once the ring is full.
// Safe on a nil receiver.
func (r *FlightRecorder) Record(kind, detail string) {
	if r == nil {
		return
	}
	r.publish(&Event{Kind: kind, Detail: detail})
}

// lazyEvent is an event whose detail is v's text, made when the recorder
// is read.
type lazyEvent[T fmt.Stringer] struct {
	Event
	v T
}

func (l *lazyEvent[T]) detail() string { return l.v.String() }

// RecordLazy appends an event whose detail is v.String(), formatted only
// when the recorder is read (Snapshot, Dump), so recording formats
// nothing. The ring keeps v until it wraps past the event: v must own what
// it holds and not change. Safe on a nil receiver.
func RecordLazy[T fmt.Stringer](r *FlightRecorder, kind string, v T) {
	if r == nil {
		return
	}
	l := &lazyEvent[T]{v: v}
	l.Event = Event{Kind: kind, lazy: l}
	r.publish(&l.Event)
}

// publish stamps ev and stores it in its slot.
func (r *FlightRecorder) publish(ev *Event) {
	ev.Seq = r.ring.claim()
	ev.AtNs = time.Since(r.start).Nanoseconds()
	r.ring.put(ev.Seq, ev)
}

// Snapshot returns the retained events ordered oldest first. Entries being
// overwritten concurrently may be skipped; the result is always a valid
// suffix-with-gaps of the event history.
func (r *FlightRecorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := r.ring.snapshot(func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	for i := range out {
		if e := &out[i]; e.lazy != nil {
			e.Detail, e.lazy = e.lazy.detail(), nil
		}
	}
	return out
}

// Dump renders the retained events oldest first, one line per event — the
// flight-recorder dump attached to crash reports.
func (r *FlightRecorder) Dump() []string {
	evs := r.Snapshot()
	if len(evs) == 0 {
		return nil
	}
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.String()
	}
	return out
}
