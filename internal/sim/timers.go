package sim

// Timers is the timer queue both execution engines schedule through: a
// binary min-heap ordered by (at, seq), so timers due at one instant
// fire in ascending seq order — the order the engines' byte-identical
// traces rest on. A timer is named by a small non-negative id the
// caller chooses (the rtc engine uses a machine's index, the goroutine
// kernel a slot of its timer table); an id names at most one queued
// timer at a time. The heap cells and the id → heap position table
// beside them hold no pointers, so a sift step is plain stores the
// garbage collector never sees, and Cancel still removes a timer in
// place: the heap holds exactly the live timers. The zero value is an
// empty queue.
type Timers struct {
	h   []timerCell
	pos []int // id → heap index + 1; 0 while the id is not queued
}

// timerCell is one queued timer.
type timerCell struct {
	at  Time
	seq int
	id  int
}

func (a *timerCell) before(b *timerCell) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Len returns the number of queued timers.
func (q *Timers) Len() int { return len(q.h) }

// Reserve makes room for ids 0..n-1, all queued at once, without
// reallocating.
func (q *Timers) Reserve(n int) {
	if cap(q.h) < n {
		q.h = append(make([]timerCell, 0, n), q.h...)
	}
	q.growPos(n)
}

// growPos extends the position table to cover ids 0..n-1, at least
// doubling it.
func (q *Timers) growPos(n int) {
	if len(q.pos) < n {
		pos := make([]int, max(n, 2*len(q.pos)))
		copy(pos, q.pos)
		q.pos = pos
	}
}

// Push queues timer id, due at at with tie-break seq. id must not be
// queued.
func (q *Timers) Push(id int, at Time, seq int) {
	q.growPos(id + 1)
	if q.pos[id] != 0 {
		panic("sim: Push of a queued timer id")
	}
	q.h = append(q.h, timerCell{at: at, seq: seq, id: id})
	q.up(len(q.h) - 1)
}

// Next returns the earliest due time among queued timers.
func (q *Timers) Next() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// PopDue removes the earliest timer and returns its id if it is due at
// exactly t. Popping until it reports false fires one instant in seq
// order.
func (q *Timers) PopDue(t Time) (int, bool) {
	if len(q.h) == 0 || q.h[0].at != t {
		return 0, false
	}
	id := q.h[0].id
	q.remove(0)
	return id, true
}

// Cancel removes timer id if it is queued, reporting whether it was.
func (q *Timers) Cancel(id int) bool {
	if id >= len(q.pos) || q.pos[id] == 0 {
		return false
	}
	q.remove(q.pos[id] - 1)
	return true
}

// Queued reports whether timer id is queued and, if so, the due time
// and tie-break it was pushed with.
func (q *Timers) Queued(id int) (at Time, seq int, ok bool) {
	if id >= len(q.pos) || q.pos[id] == 0 {
		return 0, 0, false
	}
	c := &q.h[q.pos[id]-1]
	return c.at, c.seq, true
}

// Each calls fn for every queued timer in heap order, not firing
// order; callers needing a deterministic order sort by (at, seq). fn
// must not modify the queue.
func (q *Timers) Each(fn func(id int, at Time, seq int)) {
	for _, c := range q.h {
		fn(c.id, c.at, c.seq)
	}
}

// remove deletes the timer at heap index i, moving the last cell into
// its place and restoring the heap property.
func (q *Timers) remove(i int) {
	q.pos[q.h[i].id] = 0
	last := len(q.h) - 1
	moved := q.h[last]
	q.h = q.h[:last]
	if i == last {
		return
	}
	q.h[i] = moved
	if !q.down(i) {
		q.up(i)
	}
}

// up moves the cell at i towards the root until its parent is earlier.
func (q *Timers) up(i int) {
	h := q.h
	c := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !c.before(&h[p]) {
			break
		}
		h[i] = h[p]
		q.pos[h[i].id] = i + 1
		i = p
	}
	h[i] = c
	q.pos[c.id] = i + 1
}

// down moves the cell at i towards the leaves until both children are
// later, reporting whether it moved.
func (q *Timers) down(i int) bool {
	h := q.h
	c := h[i]
	start, n := i, len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(&h[l]) {
			l = r
		}
		if !h[l].before(&c) {
			break
		}
		h[i] = h[l]
		q.pos[h[i].id] = i + 1
		i = l
	}
	h[i] = c
	q.pos[c.id] = i + 1
	return i != start
}
