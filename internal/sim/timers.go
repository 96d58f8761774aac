package sim

import "container/heap"

// timerEntry is a pending timeout or timed notification.
type timerEntry struct {
	at       Time
	seq      int // tie-break: FIFO among equal times
	p        *Proc
	e        *Event
	canceled bool
}

// heapTimers schedules the kernel's timers: a binary min-heap ordered by
// (at, seq) with lazy cancelation and bounded compaction.
type heapTimers struct {
	k        *Kernel
	h        timerHeap
	canceled int // canceled-but-unpopped entries
}

func (b *heapTimers) push(e *timerEntry) { heap.Push(&b.h, e) }

// peek returns the earliest live entry without popping it, discarding
// (and recycling) canceled entries encountered at the top.
func (b *heapTimers) peek() (*timerEntry, bool) {
	for b.h.Len() > 0 {
		top := b.h[0]
		if !top.canceled {
			return top, true
		}
		heap.Pop(&b.h)
		b.canceled--
		b.k.recycleTimer(top)
	}
	return nil, false
}

func (b *heapTimers) nextTime() (Time, bool) {
	e, ok := b.peek()
	if !ok {
		return 0, false
	}
	return e.at, true
}

func (b *heapTimers) popDue(t Time) *timerEntry {
	e, ok := b.peek()
	if !ok || e.at != t {
		return nil
	}
	heap.Pop(&b.h)
	return e
}

// timerCompactMin is the cancelation count below which the heap tolerates
// dead entries; above it, compaction triggers once dead entries are the
// majority, keeping the heap length within 2x the live entry count (plus
// the threshold) under cancel-heavy load.
const timerCompactMin = 64

// cancel lazily removes a heap-resident entry. The heap pop skips
// canceled entries; when canceled entries pile up faster than pops drain
// them (timeout-heavy or fault-injection workloads), the heap is
// compacted in place so its length stays bounded by the live timer count.
func (b *heapTimers) cancel(e *timerEntry) {
	if e.canceled {
		return
	}
	e.canceled = true
	b.canceled++
	if b.canceled >= timerCompactMin && b.canceled*2 >= len(b.h) {
		b.compact()
	}
}

// compact rebuilds the heap without its canceled entries, recycling them
// to the free list.
func (b *heapTimers) compact() {
	live := b.h[:0]
	for _, e := range b.h {
		if e.canceled {
			b.k.recycleTimer(e)
			continue
		}
		live = append(live, e)
	}
	for i := len(live); i < len(b.h); i++ {
		b.h[i] = nil
	}
	b.h = live
	heap.Init(&b.h)
	b.canceled = 0
}

func (b *heapTimers) live() int { return len(b.h) - b.canceled }

// timerHeap is a min-heap of timer entries ordered by (at, seq).
type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) {
	*h = append(*h, x.(*timerEntry))
}
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
