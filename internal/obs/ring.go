package obs

import "sync"

// ring is a fixed-size buffer keeping the newest records: the span tracer,
// the transaction tracer and the flight recorder each keep a set of them,
// one per core or stripe, and pick the ring a record goes to. Records and
// reads are serialized by the ring's mutex; each ring is effectively
// single-writer, so the lock is uncontended on the record path.
type ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	next    int
	wrapped bool
	_       [40]byte // keep neighbouring rings off each other's line
}

// newRings returns n rings of size records each.
func newRings[T any](n, size int) []ring[T] {
	rs := make([]ring[T], n)
	for i := range rs {
		rs[i].buf = make([]T, size)
	}
	return rs
}

func (r *ring[T]) record(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// collectRings appends every retained record of rs, oldest first per ring.
func collectRings[T any](rs []ring[T]) []T {
	var out []T
	for i := range rs {
		r := &rs[i]
		r.mu.Lock()
		if r.wrapped {
			out = append(out, r.buf[r.next:]...)
		}
		out = append(out, r.buf[:r.next]...)
		r.mu.Unlock()
	}
	return out
}

// resetRings discards every retained record of rs.
func resetRings[T any](rs []ring[T]) {
	for i := range rs {
		r := &rs[i]
		r.mu.Lock()
		r.next, r.wrapped = 0, false
		r.mu.Unlock()
	}
}
