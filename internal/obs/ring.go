package obs

import (
	"slices"
	"sync/atomic"
)

// ring retains the last N published values: the store of both the flight
// recorder and the span ring. Publication is lock-free: a producer claims a
// sequence number with one atomic add and publishes into that number's slot
// with one atomic pointer store, so concurrent producers (inferior
// goroutine, tool goroutine, async owner goroutine, server sessions) never
// contend on a lock and never tear an entry. A snapshot may miss an entry
// being overwritten, never see a corrupt one.
type ring[T any] struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[T]
}

// init sizes the ring to retain the last n values (at least one).
func (r *ring[T]) init(n int) { r.slots = make([]atomic.Pointer[T], max(n, 1)) }

// claim returns the sequence number, from 1, of the next value to publish.
func (r *ring[T]) claim() uint64 { return r.seq.Add(1) }

// put publishes v as value number seq, overwriting the oldest value once
// the ring is full.
func (r *ring[T]) put(seq uint64, v *T) { r.slots[(seq-1)%uint64(len(r.slots))].Store(v) }

// snapshot copies the retained values, ordered by order.
func (r *ring[T]) snapshot(order func(a, b T) int) []T {
	out := make([]T, 0, len(r.slots))
	for i := range r.slots {
		if v := r.slots[i].Load(); v != nil {
			out = append(out, *v)
		}
	}
	slices.SortFunc(out, order)
	return out
}
