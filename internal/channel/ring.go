package channel

import "repro/internal/core"

// Ring is a FIFO buffer over a ring of slots that starts small and
// doubles only when it is full, up to an optional bound, so memory
// follows the peak occupancy rather than a declared capacity and
// steady-state traffic does not allocate. Popped slots are cleared, so
// the ring holds no stale references. The zero Ring is an empty,
// unbounded buffer. The bounded queues of the RTOS model use it: the
// generic QueueState and the OSEK queue, on both engines.
type Ring[T any] struct {
	ring    []T
	head, n int // oldest element's slot; buffered elements
	max     int // growth bound (0: unbounded)
}

// minRing is the ring's first size (or the bound, if smaller).
const minRing = 4

// NewRing returns an empty ring that never grows past max slots (0:
// unbounded). Pushing into a full bounded ring panics; callers check Len
// against their capacity first.
func NewRing[T any](max int) Ring[T] { return Ring[T]{max: max} }

// Len returns the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v behind the newest element.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.ring) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.ring) {
		i -= len(r.ring)
	}
	r.ring[i] = v
	r.n++
}

// Pop removes and returns the oldest element; the caller has checked
// that the ring is not empty.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.ring[r.head]
	r.ring[r.head] = zero
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
	r.n--
	return v
}

// State writes or reads the buffered elements, oldest first, as one
// tagged checkpoint list; reading replaces them.
func (r *Ring[T]) State(c *core.StateCodec, tag string) {
	vals := make([]T, r.n)
	for i := range vals {
		vals[i] = r.ring[(r.head+i)%len(r.ring)]
	}
	core.List(c, tag, &vals)
	if r.max > 0 && len(vals) > r.max {
		c.Failf("%s list of %d values overflows the capacity %d", tag, len(vals), r.max)
	}
	if c.Restoring() {
		for r.n > 0 {
			r.Pop()
		}
		for _, v := range vals {
			r.Push(v)
		}
	}
}

// grow doubles the full ring, up to the bound, unwrapping its elements
// to the front of the new buffer.
func (r *Ring[T]) grow() {
	size := max(2*len(r.ring), minRing)
	if r.max > 0 {
		size = min(size, r.max)
	}
	if size == len(r.ring) {
		panic("channel: push into a full bounded ring")
	}
	ring := make([]T, size)
	k := copy(ring, r.ring[r.head:])
	copy(ring[k:], r.ring[:r.head])
	r.ring, r.head = ring, 0
}
