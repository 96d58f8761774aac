// Package readyq implements the policy-indexed ready structure of the
// SMP extension (internal/smp).
//
// Real RTOS kernels do not scan their ready list on every dispatch: they
// index it (µC/OS's priority bitmap, VxWorks' priority-bucketed FIFO
// queues). This package provides the same shape for the RTOS *model*, so
// that the simulation hot path — dispatch, preemption checks, ready-queue
// maintenance — costs O(1) for the common case and O(log n) worst case
// instead of O(n) per decision:
//
//   - tasks are grouped into buckets by a two-component rank Key (the
//     policy's static ordering: priority, deadline, ...);
//   - buckets are kept in a small sorted array (binary search; the bucket
//     count is the number of *distinct* ranks currently ready, typically
//     far below the task count);
//   - within a bucket, tasks chain through intrusive FIFO links embedded
//     in the task struct, ordered by their ready-queue sequence number —
//     exactly the dispatcher's FIFO tie-break.
//
// The structure is allocation-free in steady state: emptied buckets are
// recycled on a free list and the intrusive links live inside the tasks.
//
// Equivalence contract: for a policy whose Less ordering matches the
// lexicographic order of its Rank keys, Min() returns exactly the task a
// linear scan with FIFO tie-break would pick. The property test in this
// package pins that contract against a naive linear reference.
package readyq

// Key is a policy rank: two lexicographically ordered components. Smaller
// runs first. Fixed-priority policies use {priority, 0}; EDF uses
// {deadline, priority}; FCFS uses {0, 0} (pure FIFO).
type Key struct{ A, B int64 }

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.A != o.A {
		return k.A < o.A
	}
	return k.B < o.B
}

// Links is the intrusive node state a task embeds to participate in a
// Queue. The zero value is an unqueued node.
type Links[T comparable] struct {
	next, prev T
	seq        int
	b          *bucket[T]
}

// Queued reports whether the owning task is currently in a queue.
func (l *Links[T]) Queued() bool { return l.b != nil }

// bucket is one rank level: a FIFO list of tasks sharing a Key.
type bucket[T comparable] struct {
	key        Key
	head, tail T
	n          int
}

// Queue is a priority-bucketed ready queue over tasks of type T. The
// links accessor returns the task's embedded Links; it must be a pure
// field access.
type Queue[T comparable] struct {
	links   func(T) *Links[T]
	buckets []*bucket[T] // sorted ascending by key, all non-empty
	free    []*bucket[T]
	size    int
}

// New returns an empty queue using the given intrusive-links accessor.
func New[T comparable](links func(T) *Links[T]) *Queue[T] {
	return &Queue[T]{links: links}
}

// Len returns the number of queued tasks.
func (q *Queue[T]) Len() int { return q.size }

// find returns the index of the bucket with the given key, or the
// insertion position when absent.
func (q *Queue[T]) find(key Key) (int, bool) {
	lo, hi := 0, len(q.buckets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		bk := q.buckets[mid].key
		switch {
		case bk.Less(key):
			lo = mid + 1
		case key.Less(bk):
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Push inserts t with the given rank key and ready sequence number. Tasks
// within one rank are ordered by ascending seq (the FIFO tie-break), so a
// re-keyed task that keeps its original seq re-enters exactly where the
// linear-scan dispatcher would have found it. Push panics if t is already
// queued.
func (q *Queue[T]) Push(t T, key Key, seq int) {
	l := q.links(t)
	if l.b != nil {
		panic("readyq: Push of an already queued task")
	}
	i, ok := q.find(key)
	var b *bucket[T]
	if ok {
		b = q.buckets[i]
	} else {
		if n := len(q.free); n > 0 {
			b = q.free[n-1]
			q.free[n-1] = nil
			q.free = q.free[:n-1]
		} else {
			b = new(bucket[T])
		}
		b.key = key
		q.buckets = append(q.buckets, nil)
		copy(q.buckets[i+1:], q.buckets[i:])
		q.buckets[i] = b
	}
	var zero T
	l.seq = seq
	l.b = b
	l.next, l.prev = zero, zero
	if b.n == 0 {
		b.head, b.tail = t, t
		b.n = 1
		q.size++
		return
	}
	// Splice in seq order, scanning from the tail: normal arrivals carry
	// the highest seq so far and append in O(1); only re-keyed tasks
	// (priority/deadline changed while ready) walk further.
	after := b.tail
	for after != zero && q.links(after).seq > seq {
		after = q.links(after).prev
	}
	if after == zero {
		l.next = b.head
		q.links(b.head).prev = t
		b.head = t
	} else {
		nxt := q.links(after).next
		l.prev = after
		l.next = nxt
		q.links(after).next = t
		if nxt == zero {
			b.tail = t
		} else {
			q.links(nxt).prev = t
		}
	}
	b.n++
	q.size++
}

// PushFront inserts t at the head of its rank's FIFO in O(1): the
// re-insertion an OSEK-conformant dispatcher performs for a preempted
// task, which re-enters its priority level as the *oldest* ready task
// (OSEK OS 2.2.3 §4.6.5), not the newest. The caller must supply a seq
// that orders at or before the bucket's current head (the OS keeps a
// separate decrementing front counter), preserving the ascending-seq
// chain invariant Push and Update rely on; PushFront panics otherwise.
func (q *Queue[T]) PushFront(t T, key Key, seq int) {
	l := q.links(t)
	if l.b != nil {
		panic("readyq: PushFront of an already queued task")
	}
	i, ok := q.find(key)
	if !ok {
		// Empty rank: indistinguishable from a plain push.
		q.Push(t, key, seq)
		return
	}
	b := q.buckets[i]
	if q.links(b.head).seq < seq {
		panic("readyq: PushFront seq would not order first in its rank")
	}
	var zero T
	l.seq = seq
	l.b = b
	l.prev = zero
	l.next = b.head
	q.links(b.head).prev = t
	b.head = t
	b.n++
	q.size++
}

// Remove unlinks t and reports whether it was queued.
func (q *Queue[T]) Remove(t T) bool {
	l := q.links(t)
	b := l.b
	if b == nil {
		return false
	}
	var zero T
	if l.prev == zero {
		b.head = l.next
	} else {
		q.links(l.prev).next = l.next
	}
	if l.next == zero {
		b.tail = l.prev
	} else {
		q.links(l.next).prev = l.prev
	}
	l.next, l.prev, l.b = zero, zero, nil
	b.n--
	q.size--
	if b.n == 0 {
		q.dropBucket(b)
	}
	return true
}

// dropBucket removes an emptied bucket from the sorted array and recycles
// it.
func (q *Queue[T]) dropBucket(b *bucket[T]) {
	i, ok := q.find(b.key)
	if !ok || q.buckets[i] != b {
		panic("readyq: bucket index corrupt")
	}
	copy(q.buckets[i:], q.buckets[i+1:])
	q.buckets[len(q.buckets)-1] = nil
	q.buckets = q.buckets[:len(q.buckets)-1]
	var zero T
	b.head, b.tail = zero, zero
	q.free = append(q.free, b)
}

// Min returns the queued task that orders first — lowest key, then lowest
// seq — without removing it. Returns the zero T when empty.
func (q *Queue[T]) Min() T {
	var zero T
	if len(q.buckets) == 0 {
		return zero
	}
	return q.buckets[0].head
}

// PopMin removes and returns the first task (zero T when empty).
func (q *Queue[T]) PopMin() T {
	t := q.Min()
	var zero T
	if t != zero {
		q.Remove(t)
	}
	return t
}

// Update re-keys a queued task in place, preserving its original seq (and
// therefore its FIFO standing among tasks of its new rank). A no-op when
// t is not queued or the key is unchanged.
func (q *Queue[T]) Update(t T, key Key) {
	l := q.links(t)
	if l.b == nil || l.b.key == key {
		return
	}
	seq := l.seq
	q.Remove(t)
	q.Push(t, key, seq)
}

// Clear unlinks every task and recycles all buckets.
func (q *Queue[T]) Clear() {
	var zero T
	for _, b := range q.buckets {
		for t := b.head; t != zero; {
			l := q.links(t)
			nxt := l.next
			l.next, l.prev, l.b = zero, zero, nil
			t = nxt
		}
		b.head, b.tail, b.n = zero, zero, 0
		q.free = append(q.free, b)
	}
	for i := range q.buckets {
		q.buckets[i] = nil
	}
	q.buckets = q.buckets[:0]
	q.size = 0
}

// Do calls f for every queued task in dispatch order (ascending key, then
// seq). f must not mutate the queue.
func (q *Queue[T]) Do(f func(T)) {
	var zero T
	for _, b := range q.buckets {
		for t := b.head; t != zero; t = q.links(t).next {
			f(t)
		}
	}
}
