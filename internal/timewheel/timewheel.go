// Package timewheel implements a hierarchical timing wheel: the
// tick-bucket timer structure real kernels and network stacks use when
// timers are scheduled and canceled far more often than they fire
// (TCP retransmit timers are the classic case — each segment arms a
// countdown that is almost always canceled by the ACK).
//
// The wheel replaces a binary heap's O(log n) schedule/cancel with O(1):
//
//   - level 0 buckets times at the base tick granularity (one slot per
//     tick, 64 slots);
//   - level k buckets times at granularity 64^k, so five levels span
//     ~2^30 ticks from the current time;
//   - entries further out wait in a small overflow min-heap and are rare
//     by construction;
//   - entries chain through intrusive doubly-linked Nodes embedded in
//     the caller's type (zero-alloc steady state, O(1) cancel).
//
// When time advances to t, higher-level slots covering t cascade down:
// their entries redistribute to lower levels, and every entry due at
// exactly t lands in level 0's slot for t. CollectDue then drains that
// slot and sorts it by the caller's sequence number, restoring the exact
// (time, seq) FIFO firing order a binary heap provides — the order the
// simulation kernel's trace byte-equivalence depends on.
//
// The structure is generic over the entry type with pure-field accessors
// into intrusive nodes, so it allocates nothing per entry. The
// run-to-completion engine (internal/rtc) runs on it; the goroutine
// kernel (internal/sim) keeps its binary heap, which fires in the same
// order.
//
// A front slot accelerates the dominant simulation pattern — the newly
// scheduled deadline is earlier than everything pending, and N wakes land
// on the same instant. When a push is provably earlier than every queued
// entry (tracked by an exact lower bound the existing scans refresh for
// free), it is cached in a single front slot instead of the wheel; pushes
// at the same instant chain onto it. While the slot is armed, NextTime is
// one field read and CollectDue drains the chain with no cascade, no
// level scan and no heap traffic. Deferring the cascade is safe: a
// cascade at any later time t' still redistributes the level-k slot
// covering t', so entries parked at higher levels are re-derived when
// their time comes.
package timewheel

import (
	"math"
	"math/bits"
)

const (
	slotBits  = 6
	slotCount = 1 << slotBits // 64 slots per level
	slotMask  = slotCount - 1
	// levelCount wheel levels: level k has granularity 64^k ticks.
	levelCount = 5
)

// Span is the horizon covered by the wheel levels: entries scheduled at
// least Span ticks in the future wait in the overflow heap until the
// wheel catches up.
const Span = int64(1) << (slotBits * levelCount)

// where encodings for Node.where.
const (
	whereIdle     = 0              // not queued
	whereWheelL0  = 1              // wheel level = where - whereWheelL0
	whereOverflow = levelCount + 1 // overflow heap, position Node.heapIdx
	whereFast     = levelCount + 2 // front slot chain
)

// Node is the intrusive state an entry embeds to participate in a Wheel.
// The zero value is an unqueued node.
type Node[T comparable] struct {
	next, prev T
	where      int8
	slot       int16
	heapIdx    int32
}

// Queued reports whether the owning entry is currently in the wheel (or
// its overflow heap).
func (n *Node[T]) Queued() bool { return n.where != whereIdle }

// list is one slot's FIFO chain.
type list[T comparable] struct{ head, tail T }

// Wheel is a hierarchical timing wheel over entries of type T. The
// accessors must be pure field reads: node returns the entry's embedded
// Node, at its absolute due time, seq its FIFO tie-break (entries due at
// the same time fire in ascending seq order).
type Wheel[T comparable] struct {
	node func(T) *Node[T]
	at   func(T) int64
	seq  func(T) int

	cur      int64 // current time; entries with at < cur have fired
	occupied [levelCount]uint64
	slots    [levelCount][slotCount]list[T]
	overflow []T // min-heap by (at, seq) of entries beyond Span
	size     int

	// Front slot: a chain of entries all due at fastAt, strictly earlier
	// than every wheel/overflow entry. fastLen > 0 means armed. bound is a
	// lower bound on the due time of every wheel/overflow entry (exact
	// right after a scan, math.MaxInt64 when that part is empty); arming
	// requires at < bound so the strict-ordering invariant is provable.
	fast    list[T]
	fastAt  int64
	fastLen int
	bound   int64
}

// New returns an empty wheel at time zero using the given accessors.
func New[T comparable](node func(T) *Node[T], at func(T) int64, seq func(T) int) *Wheel[T] {
	return &Wheel[T]{node: node, at: at, seq: seq, bound: math.MaxInt64}
}

// Len returns the number of queued entries.
func (w *Wheel[T]) Len() int { return w.size }

// FastLen returns the number of entries batched in the armed front slot
// (0 when the fast path is disarmed). Exposed for tests and diagnostics
// that need to confirm the one-shot/batched-wake path is engaged.
func (w *Wheel[T]) FastLen() int { return w.fastLen }

// Now returns the wheel's current time: the largest t passed to
// CollectDue so far.
func (w *Wheel[T]) Now() int64 { return w.cur }

// Push schedules t. Its due time must not lie in the past (before the
// last CollectDue time); scheduling at exactly the current time is
// allowed and fires on the next CollectDue for that time.
func (w *Wheel[T]) Push(t T) {
	n := w.node(t)
	if n.where != whereIdle {
		panic("timewheel: Push of a queued entry")
	}
	at := w.at(t)
	if at < w.cur {
		panic("timewheel: Push in the past")
	}
	w.size++
	if w.fastLen > 0 {
		switch {
		case at == w.fastAt: // batched same-instant wake
			w.fastAppend(t, n)
			return
		case at < w.fastAt:
			// The new entry displaces the chain: spill it into the wheel
			// (its instant is a proven lower bound for that part) and arm
			// the front slot with the earlier deadline.
			w.spillFast()
			w.fastAt = at
			w.fastAppend(t, n)
			return
		}
	} else if at < w.bound {
		// Provably earlier than everything pending: one-shot fast path.
		w.fastAt = at
		w.fastAppend(t, n)
		return
	}
	if at < w.bound {
		w.bound = at
	}
	w.place(t, at)
}

// fastAppend links t onto the tail of the front-slot chain.
func (w *Wheel[T]) fastAppend(t T, n *Node[T]) {
	n.where = whereFast
	var zero T
	n.next, n.prev = zero, zero
	if w.fast.head == zero {
		w.fast.head, w.fast.tail = t, t
	} else {
		n.prev = w.fast.tail
		w.node(w.fast.tail).next = t
		w.fast.tail = t
	}
	w.fastLen++
}

// spillFast disarms the front slot, migrating its chain into the wheel
// proper. Every spilled entry keeps its due time, which becomes a valid
// lower bound for the wheel part.
func (w *Wheel[T]) spillFast() {
	var zero T
	e := w.fast.head
	w.fast.head, w.fast.tail = zero, zero
	w.fastLen = 0
	if w.fastAt < w.bound {
		w.bound = w.fastAt
	}
	for e != zero {
		n := w.node(e)
		nxt := n.next
		n.next, n.prev, n.where = zero, zero, whereIdle
		w.place(e, w.at(e))
		e = nxt
	}
}

// place links t into the level/slot (or overflow heap) for due time at,
// relative to the current wheel time. size is not touched.
func (w *Wheel[T]) place(t T, at int64) {
	d := at - w.cur
	if d >= Span {
		w.heapPush(t)
		return
	}
	level := 0
	for d >= int64(slotCount)<<(slotBits*level) {
		level++
	}
	slot := int(at>>(slotBits*level)) & slotMask
	n := w.node(t)
	n.where = whereWheelL0 + int8(level)
	n.slot = int16(slot)
	var zero T
	n.next, n.prev = zero, zero
	l := &w.slots[level][slot]
	if l.head == zero {
		l.head, l.tail = t, t
	} else {
		n.prev = l.tail
		w.node(l.tail).next = t
		l.tail = t
	}
	w.occupied[level] |= 1 << uint(slot)
}

// Cancel removes t if queued, reporting whether it was. Wheel-resident
// entries unlink in O(1); overflow entries are removed from the heap.
func (w *Wheel[T]) Cancel(t T) bool {
	n := w.node(t)
	switch n.where {
	case whereIdle:
		return false
	case whereOverflow:
		w.heapRemove(int(n.heapIdx))
		n.where = whereIdle
	case whereFast:
		w.unlinkFast(t, n)
	default:
		w.unlink(t, n)
	}
	w.size--
	return true
}

// unlinkFast detaches an entry from the front-slot chain; removing the
// last one disarms the slot.
func (w *Wheel[T]) unlinkFast(t T, n *Node[T]) {
	var zero T
	if n.prev == zero {
		w.fast.head = n.next
	} else {
		w.node(n.prev).next = n.next
	}
	if n.next == zero {
		w.fast.tail = n.prev
	} else {
		w.node(n.next).prev = n.prev
	}
	n.next, n.prev, n.where = zero, zero, whereIdle
	w.fastLen--
}

// unlink detaches a wheel-resident entry from its slot chain.
func (w *Wheel[T]) unlink(t T, n *Node[T]) {
	level := int(n.where - whereWheelL0)
	l := &w.slots[level][n.slot]
	var zero T
	if n.prev == zero {
		l.head = n.next
	} else {
		w.node(n.prev).next = n.next
	}
	if n.next == zero {
		l.tail = n.prev
	} else {
		w.node(n.next).prev = n.prev
	}
	if l.head == zero {
		w.occupied[level] &^= 1 << uint(n.slot)
	}
	n.next, n.prev, n.where = zero, zero, whereIdle
}

// Each calls fn for every queued entry — wheel slots and overflow heap —
// in no particular order. Snapshot/checkpoint code uses it to enumerate
// pending timers; callers needing a deterministic order must sort by
// (at, seq) themselves. fn must not mutate the wheel.
func (w *Wheel[T]) Each(fn func(T)) {
	var zero T
	for e := w.fast.head; e != zero; e = w.node(e).next {
		fn(e)
	}
	for level := 0; level < levelCount; level++ {
		for occ := w.occupied[level]; occ != 0; occ &= occ - 1 {
			slot := bits.TrailingZeros64(occ)
			for e := w.slots[level][slot].head; e != zero; e = w.node(e).next {
				fn(e)
			}
		}
	}
	for _, e := range w.overflow {
		fn(e)
	}
}

// NextTime returns the earliest due time among queued entries. It does
// not advance the wheel. While the front slot is armed this is one field
// read; otherwise the scan's result doubles as an exact refresh of the
// wheel-part lower bound, which is what lets subsequent pushes arm the
// front slot.
func (w *Wheel[T]) NextTime() (int64, bool) {
	if w.fastLen > 0 {
		return w.fastAt, true
	}
	t, ok := w.nextTimeSlow()
	if ok {
		w.bound = t
	} else {
		w.bound = math.MaxInt64
	}
	return t, ok
}

// nextTimeSlow scans the wheel levels and overflow heap for the earliest
// due time, ignoring the front slot.
func (w *Wheel[T]) nextTimeSlow() (int64, bool) {
	if w.size-w.fastLen == 0 {
		return 0, false
	}
	var best int64
	found := false
	// Level 0 slots map one-to-one to absolute times in [cur, cur+64):
	// the first occupied slot (rotating from cur's position) is exact.
	if occ := w.occupied[0]; occ != 0 {
		p := uint(w.cur) & slotMask
		rot := occ>>p | occ<<(slotCount-p)
		best = w.cur + int64(bits.TrailingZeros64(rot))
		found = true
	}
	// Higher levels: walk occupied slots in rotation order (ascending
	// window start) and scan each (short) chain for its exact minimum —
	// chain order within a window is insertion order, not time order,
	// and the slot at the current rotation position can additionally
	// hold entries one full revolution out (window base+64 aliases the
	// slot of window base), so a single slot's minimum is only a
	// candidate, not the level's.
	var zero T
	for level := 1; level < levelCount; level++ {
		occ := w.occupied[level]
		if occ == 0 {
			continue
		}
		shift := uint(slotBits * level)
		base := w.cur >> shift
		p := uint(base) & slotMask
		for rot := occ>>p | occ<<(slotCount-p); rot != 0; rot &= rot - 1 {
			i := bits.TrailingZeros64(rot)
			if wstart := (base + int64(i)) << shift; found && wstart >= best {
				break // later slots start later still
			}
			slot := (int(p) + i) & slotMask
			for e := w.slots[level][slot].head; e != zero; e = w.node(e).next {
				if a := w.at(e); !found || a < best {
					best, found = a, true
				}
			}
		}
	}
	if len(w.overflow) > 0 {
		if a := w.at(w.overflow[0]); !found || a < best {
			best, found = a, true
		}
	}
	return best, found
}

// CollectDue advances the wheel to time t — which must be NextTime()'s
// result (no queued entry may be due earlier) — removes every entry due
// at exactly t, and appends them to dst in ascending seq order.
func (w *Wheel[T]) CollectDue(t int64, dst []T) []T {
	if t < w.cur {
		panic("timewheel: CollectDue moving backwards")
	}
	var zero T
	if w.fastLen > 0 {
		if t > w.fastAt {
			panic("timewheel: CollectDue past a due front-slot entry")
		}
		w.cur = t
		if t < w.fastAt { // advance-only: nothing due yet
			return dst
		}
		// Drain the chain: no cascade, no level scan, no heap pops — the
		// armed invariant proves nothing else is due at t, and the bound on
		// the untouched wheel part stays exact. Deferred cascades are
		// re-derived whenever the wheel part next fires.
		start := len(dst)
		for e := w.fast.head; e != zero; {
			n := w.node(e)
			nxt := n.next
			n.next, n.prev, n.where = zero, zero, whereIdle
			dst = append(dst, e)
			w.size--
			e = nxt
		}
		w.fast.head, w.fast.tail = zero, zero
		w.fastLen = 0
		w.sortDue(dst[start:])
		return dst
	}
	w.cur = t
	// Cascade: every higher-level slot covering t redistributes to lower
	// levels (its entries are now within 64^level of cur, so each lands
	// strictly below). Entries due exactly at t end up in level 0.
	for level := levelCount - 1; level >= 1; level-- {
		shift := uint(slotBits * level)
		slot := int(t>>shift) & slotMask
		l := &w.slots[level][slot]
		if l.head == zero {
			continue
		}
		e := l.head
		l.head, l.tail = zero, zero
		w.occupied[level] &^= 1 << uint(slot)
		for e != zero {
			n := w.node(e)
			nxt := n.next
			n.next, n.prev, n.where = zero, zero, whereIdle
			w.place(e, w.at(e))
			e = nxt
		}
	}
	// Drain level 0's slot for t: it holds exactly the wheel entries due
	// at t (each level-0 slot covers a single absolute time).
	start := len(dst)
	slot := int(t) & slotMask
	if l := &w.slots[0][slot]; l.head != zero {
		for e := l.head; e != zero; {
			n := w.node(e)
			nxt := n.next
			n.next, n.prev, n.where = zero, zero, whereIdle
			dst = append(dst, e)
			w.size--
			e = nxt
		}
		l.head, l.tail = zero, zero
		w.occupied[0] &^= 1 << uint(slot)
	}
	// Overflow entries due at t (the wheel span was empty past them).
	for len(w.overflow) > 0 && w.at(w.overflow[0]) == t {
		dst = append(dst, w.heapPopMin())
		w.size--
	}
	// Restore the global FIFO tie-break: ascending seq. Chains are
	// near-sorted already (pushes arrive in seq order), so insertion
	// sort is both allocation-free and cheap.
	w.sortDue(dst[start:])
	// Everything due at or before t fired; rescan for the exact new
	// minimum so pushes issued before the next NextTime (the woken
	// entries re-arming themselves) can take the front slot.
	if nt, ok := w.nextTimeSlow(); ok {
		w.bound = nt
	} else {
		w.bound = math.MaxInt64
	}
	return dst
}

// sortDue insertion-sorts one CollectDue batch by ascending seq.
func (w *Wheel[T]) sortDue(due []T) {
	for i := 1; i < len(due); i++ {
		e := due[i]
		s := w.seq(e)
		j := i
		for j > 0 && w.seq(due[j-1]) > s {
			due[j] = due[j-1]
			j--
		}
		due[j] = e
	}
}

// heapLess orders overflow entries by (at, seq).
func (w *Wheel[T]) heapLess(a, b T) bool {
	aa, ab := w.at(a), w.at(b)
	if aa != ab {
		return aa < ab
	}
	return w.seq(a) < w.seq(b)
}

func (w *Wheel[T]) heapPush(t T) {
	n := w.node(t)
	n.where = whereOverflow
	n.heapIdx = int32(len(w.overflow))
	w.overflow = append(w.overflow, t)
	w.heapUp(len(w.overflow) - 1)
}

func (w *Wheel[T]) heapPopMin() T {
	t := w.overflow[0]
	w.node(t).where = whereIdle
	w.heapRemove(0)
	return t
}

// heapRemove deletes the entry at index i, restoring the heap property.
func (w *Wheel[T]) heapRemove(i int) {
	var zero T
	last := len(w.overflow) - 1
	if i != last {
		w.overflow[i] = w.overflow[last]
		w.node(w.overflow[i]).heapIdx = int32(i)
	}
	w.overflow[last] = zero
	w.overflow = w.overflow[:last]
	if i < last {
		if !w.heapDown(i) {
			w.heapUp(i)
		}
	}
}

func (w *Wheel[T]) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !w.heapLess(w.overflow[i], w.overflow[parent]) {
			break
		}
		w.heapSwap(i, parent)
		i = parent
	}
}

func (w *Wheel[T]) heapDown(i int) bool {
	moved := false
	n := len(w.overflow)
	for {
		smallest := i
		if l := 2*i + 1; l < n && w.heapLess(w.overflow[l], w.overflow[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && w.heapLess(w.overflow[r], w.overflow[smallest]) {
			smallest = r
		}
		if smallest == i {
			return moved
		}
		w.heapSwap(i, smallest)
		i = smallest
		moved = true
	}
}

func (w *Wheel[T]) heapSwap(i, j int) {
	w.overflow[i], w.overflow[j] = w.overflow[j], w.overflow[i]
	w.node(w.overflow[i]).heapIdx = int32(i)
	w.node(w.overflow[j]).heapIdx = int32(j)
}
