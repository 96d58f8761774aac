package sim

// Timer is the queue state a timer entry embeds to sit in a Timers
// queue: its due time, its FIFO tie-break and its heap position. The
// zero value is an unqueued timer.
type Timer struct {
	at  Time
	seq int
	pos int // heap index + 1; 0 while not queued
}

// At returns the due time the entry was last pushed with.
func (t *Timer) At() Time { return t.at }

// Seq returns the tie-break the entry was last pushed with.
func (t *Timer) Seq() int { return t.seq }

func (t *Timer) timer() *Timer { return t }

// timed is implemented by every pointer to a struct that embeds Timer.
type timed interface{ timer() *Timer }

// Timers is the timer queue both execution engines schedule through: a
// binary min-heap ordered by (at, seq), so entries due at one instant
// fire in ascending seq order — the order the engines' byte-identical
// traces rest on. Each entry embeds a Timer holding its heap position,
// so Cancel removes it in place and the heap holds exactly the live
// timers. The zero value is an empty queue.
type Timers[E timed] struct{ h []E }

// Len returns the number of queued entries.
func (q *Timers[E]) Len() int { return len(q.h) }

// Reserve makes room for n more entries without reallocating.
func (q *Timers[E]) Reserve(n int) {
	if cap(q.h)-len(q.h) < n {
		q.h = append(make([]E, 0, len(q.h)+n), q.h...)
	}
}

// Push queues e, due at at with tie-break seq. e must not be queued.
func (q *Timers[E]) Push(e E, at Time, seq int) {
	t := e.timer()
	if t.pos != 0 {
		panic("sim: Push of a queued timer")
	}
	t.at, t.seq = at, seq
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// Next returns the earliest due time among queued entries.
func (q *Timers[E]) Next() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].timer().at, true
}

// PopDue removes and returns the earliest entry if it is due at exactly
// t. Popping until it reports false fires one instant in seq order.
func (q *Timers[E]) PopDue(t Time) (E, bool) {
	if len(q.h) == 0 || q.h[0].timer().at != t {
		var zero E
		return zero, false
	}
	e := q.h[0]
	q.remove(0)
	return e, true
}

// Cancel removes e if it is queued, reporting whether it was.
func (q *Timers[E]) Cancel(e E) bool {
	t := e.timer()
	if t.pos == 0 {
		return false
	}
	q.remove(t.pos - 1)
	return true
}

// Each calls fn for every queued entry in heap order, not firing order;
// callers needing a deterministic order sort by (At, Seq). fn must not
// modify the queue.
func (q *Timers[E]) Each(fn func(E)) {
	for _, e := range q.h {
		fn(e)
	}
}

// remove deletes the entry at heap index i, moving the last entry into
// its place and restoring the heap property.
func (q *Timers[E]) remove(i int) {
	q.h[i].timer().pos = 0
	last := len(q.h) - 1
	moved := q.h[last]
	var zero E
	q.h[last] = zero
	q.h = q.h[:last]
	if i == last {
		return
	}
	q.h[i] = moved
	if !q.down(i) {
		q.up(i)
	}
}

func before(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up moves the entry at i towards the root until its parent is earlier.
func (q *Timers[E]) up(i int) {
	e := q.h[i]
	t := e.timer()
	for i > 0 {
		p := (i - 1) / 2
		pt := q.h[p].timer()
		if !before(t, pt) {
			break
		}
		q.h[i] = q.h[p]
		pt.pos = i + 1
		i = p
	}
	q.h[i] = e
	t.pos = i + 1
}

// down moves the entry at i towards the leaves until both children are
// later, reporting whether it moved.
func (q *Timers[E]) down(i int) bool {
	e := q.h[i]
	t := e.timer()
	start, n := i, len(q.h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		ct := q.h[c].timer()
		if r := c + 1; r < n {
			if rt := q.h[r].timer(); before(rt, ct) {
				c, ct = r, rt
			}
		}
		if !before(ct, t) {
			break
		}
		q.h[i] = q.h[c]
		ct.pos = i + 1
		i = c
	}
	q.h[i] = e
	t.pos = i + 1
	return i != start
}
