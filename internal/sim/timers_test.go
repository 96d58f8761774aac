package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// tentry is the test entry type: an id plus the embedded queue state.
type tentry struct {
	Timer
	id int
}

// refEntry is one entry of the reference queue.
type refEntry struct {
	id  int
	at  Time
	seq int
}

// refQueue is the oracle: a plain sorted slice with the (at, seq)
// contract Timers must keep.
type refQueue struct{ entries []refEntry }

func (r *refQueue) push(e refEntry) {
	r.entries = append(r.entries, e)
	sort.Slice(r.entries, func(i, j int) bool {
		a, b := r.entries[i], r.entries[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
}

func (r *refQueue) cancel(id int) {
	for i, x := range r.entries {
		if x.id == id {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return
		}
	}
}

func (r *refQueue) next() (Time, bool) {
	if len(r.entries) == 0 {
		return 0, false
	}
	return r.entries[0].at, true
}

func (r *refQueue) collectDue(t Time) []refEntry {
	var due []refEntry
	for len(r.entries) > 0 && r.entries[0].at == t {
		due = append(due, r.entries[0])
		r.entries = r.entries[1:]
	}
	return due
}

// popAllDue pops every entry due at exactly t.
func popAllDue(q *Timers[*tentry], t Time) []*tentry {
	var due []*tentry
	for {
		e, ok := q.PopDue(t)
		if !ok {
			return due
		}
		due = append(due, e)
	}
}

// TestDifferentialVsHeap drives random schedule / cancel / advance
// interleavings through Timers and a sorted-slice reference and demands
// the identical firing order — the property the engines' trace
// byte-equivalence rests on. Deltas mix zero (due now), short, long and
// very long offsets, and duplicates of live instants so same-instant
// batches form and are canceled into.
func TestDifferentialVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Timers[*tentry]
		ref := &refQueue{}
		live := make(map[int]*tentry)
		nextID, nextSeq := 0, 0
		now := Time(0)

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(12); {
			case op < 5: // schedule
				var d Time
				switch rng.Intn(6) {
				case 0:
					d = 0 // due at the current instant
				case 1, 2:
					d = Time(rng.Intn(64))
				case 3:
					d = Time(rng.Int63n(1 << 30))
				case 4:
					d = Time(1)<<40 + Time(rng.Int63n(1<<40))
				case 5:
					// Duplicate a live entry's instant.
					d = Time(rng.Intn(64))
					for _, e := range live {
						d = e.at - now
						break
					}
				}
				nextID++
				nextSeq++
				e := &tentry{id: nextID}
				q.Push(e, now+d, nextSeq)
				ref.push(refEntry{id: nextID, at: now + d, seq: nextSeq})
				live[e.id] = e
			case op < 7: // cancel a random live entry
				for id, e := range live {
					if !q.Cancel(e) {
						t.Fatalf("seed %d: Cancel(%d) found nothing", seed, id)
					}
					ref.cancel(id)
					delete(live, id)
					break
				}
			case op < 8: // advance-only: move time forward, nothing fires
				nt, ok := q.Next()
				if !ok || nt <= now {
					continue
				}
				now += (nt - now) / 2
				if _, ok := q.PopDue(now); ok {
					t.Fatalf("seed %d step %d: PopDue(%d) fired before the next due time %d",
						seed, step, now, nt)
				}
			default: // advance to the next due time and fire
				nt, ok := q.Next()
				rt, rok := ref.next()
				if ok != rok || (ok && nt != rt) {
					t.Fatalf("seed %d step %d: Next queue=(%d,%v) ref=(%d,%v)",
						seed, step, nt, ok, rt, rok)
				}
				if !ok {
					continue
				}
				now = nt
				got := popAllDue(&q, nt)
				want := ref.collectDue(nt)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d at t=%d: queue fired %d entries, reference %d",
						seed, step, nt, len(got), len(want))
				}
				for i := range got {
					if got[i].id != want[i].id {
						t.Fatalf("seed %d step %d at t=%d: firing order diverges at %d: queue id %d, reference id %d",
							seed, step, nt, i, got[i].id, want[i].id)
					}
					delete(live, got[i].id)
				}
			}
			if q.Len() != len(ref.entries) {
				t.Fatalf("seed %d step %d: Len %d != reference %d", seed, step, q.Len(), len(ref.entries))
			}
		}
	}
}

// TestSameInstantSeqOrder pins the FIFO tie-break: entries due at one
// instant fire in ascending seq order whatever order they were pushed
// in (Restore pushes checkpointed timers with their recorded seqs) and
// whatever other instants surround them.
func TestSameInstantSeqOrder(t *testing.T) {
	var q Timers[*tentry]
	const at = Time(1000)
	rng := rand.New(rand.NewSource(3))
	var entries []*tentry
	for _, seq := range rng.Perm(12) {
		e := &tentry{id: seq}
		entries = append(entries, e)
		q.Push(e, at, seq)
		// Surround the batch with earlier and later instants.
		q.Push(&tentry{id: -1}, at-Time(1+rng.Intn(100)), 100+seq)
		q.Push(&tentry{id: -1}, at+Time(1+rng.Intn(100)), 200+seq)
	}
	for {
		nt, ok := q.Next()
		if !ok || nt >= at {
			break
		}
		popAllDue(&q, nt)
	}
	if nt, ok := q.Next(); !ok || nt != at {
		t.Fatalf("Next = (%d, %v), want (%d, true)", nt, ok, at)
	}
	got := popAllDue(&q, at)
	if len(got) != len(entries) {
		t.Fatalf("fired %d entries, want %d", len(got), len(entries))
	}
	for i, e := range got {
		if e.id != i {
			t.Fatalf("firing order[%d] = id %d, want %d", i, e.id, i)
		}
	}
	for _, e := range entries {
		if e.pos != 0 {
			t.Fatalf("entry %d still queued after firing", e.id)
		}
	}
}

// TestCancelUnqueued pins Cancel's report on never-queued and
// already-fired entries.
func TestCancelUnqueued(t *testing.T) {
	var q Timers[*tentry]
	e := &tentry{}
	if q.Cancel(e) {
		t.Fatal("Cancel of a never-queued entry reported true")
	}
	q.Push(e, 10, 1)
	got := popAllDue(&q, 10)
	if len(got) != 1 || got[0] != e {
		t.Fatalf("PopDue = %v, want the pushed entry", got)
	}
	if q.Cancel(e) {
		t.Fatal("Cancel after firing reported true")
	}
}

// TestZeroAllocSteadyState pins the zero-alloc property of the hot
// operations: once the heap's backing array is warm, schedule / cancel /
// fire allocate nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	var q Timers[*tentry]
	const n = 64
	entries := make([]*tentry, n)
	for i := range entries {
		entries[i] = &tentry{id: i}
	}
	now := Time(0)
	seq := 0
	cycle := func() {
		for i, e := range entries {
			seq++
			q.Push(e, now+Time(1+(i*7)%300), seq)
		}
		for i := 0; i < n; i += 2 { // cancel half, fire half
			q.Cancel(entries[i])
		}
		for {
			nt, ok := q.Next()
			if !ok {
				break
			}
			now = nt
			for _, ok := q.PopDue(nt); ok; _, ok = q.PopDue(nt) {
			}
		}
	}
	cycle() // warm up the backing array
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule/cancel/fire allocates %.1f times per cycle, want 0", allocs)
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	var q Timers[*tentry]
	const n = 128
	entries := make([]*tentry, n)
	for i := range entries {
		entries[i] = &tentry{id: i}
	}
	b.ReportAllocs()
	b.ResetTimer()
	seq := 0
	for i := 0; i < b.N; i++ {
		for j, e := range entries {
			seq++
			q.Push(e, Time(seq+j%977), seq)
		}
		for _, e := range entries {
			q.Cancel(e)
		}
	}
}

// TestEachEnumeratesAll pins Each against a randomized population: every
// queued entry is visited exactly once, canceled and fired ones are not,
// and the enumeration stays consistent with Len.
func TestEachEnumeratesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Timers[*tentry]
	alive := map[int]*tentry{}
	now := Time(0)
	for id := 0; id < 500; id++ {
		e := &tentry{id: id}
		q.Push(e, now+Time(rng.Int63n(1<<20)), id+1)
		alive[id] = e
		if rng.Intn(4) == 0 { // cancel a random survivor
			for victim, v := range alive {
				if q.Cancel(v) {
					delete(alive, victim)
				}
				break
			}
		}
		if rng.Intn(8) == 0 { // advance to the next due instant
			if at, ok := q.Next(); ok {
				now = at
				for _, due := range popAllDue(&q, at) {
					delete(alive, due.id)
				}
			}
		}
	}
	seen := map[int]int{}
	q.Each(func(e *tentry) { seen[e.id]++ })
	if len(seen) != len(alive) || len(seen) != q.Len() {
		t.Fatalf("Each visited %d entries, want %d alive (Len=%d)", len(seen), len(alive), q.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("Each visited entry %d %d times", id, n)
		}
		if _, ok := alive[id]; !ok {
			t.Fatalf("Each visited entry %d which was canceled or fired", id)
		}
	}
}
