package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

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

// popAllDue pops every timer due at exactly t and returns their ids.
func popAllDue(q *Timers, t Time) []int {
	var due []int
	for {
		id, ok := q.PopDue(t)
		if !ok {
			return due
		}
		due = append(due, id)
	}
}

// TestDifferentialVsHeap drives random schedule / cancel / advance
// interleavings through Timers and a sorted-slice reference and demands
// the identical firing order — the property the engines' trace
// byte-equivalence rests on. Deltas mix zero (due now), short, long and
// very long offsets, and duplicates of live instants so same-instant
// batches form and are canceled into. Scheduling reuses the ids of
// popped and canceled timers as often as it takes fresh ones, the way
// both engines recycle theirs, so a stale position entry would show.
func TestDifferentialVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Timers
		ref := &refQueue{}
		live := make(map[int]refEntry)
		var free []int // ids popped or canceled, available again
		popped, canceled := map[int]bool{}, map[int]bool{}
		reusedPop, reusedCancel := 0, 0
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
				var id int
				if len(free) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(free))
					id = free[i]
					free = append(free[:i], free[i+1:]...)
					if popped[id] {
						reusedPop++
					} else {
						reusedCancel++
					}
				} else {
					id = nextID
					nextID++
				}
				delete(popped, id)
				delete(canceled, id)
				nextSeq++
				e := refEntry{id: id, at: now + d, seq: nextSeq}
				q.Push(id, e.at, e.seq)
				ref.push(e)
				live[id] = e
			case op < 7: // cancel a random live entry
				for id := range live {
					if !q.Cancel(id) {
						t.Fatalf("seed %d: Cancel(%d) found nothing", seed, id)
					}
					if q.Cancel(id) {
						t.Fatalf("seed %d: second Cancel(%d) reported true", seed, id)
					}
					ref.cancel(id)
					delete(live, id)
					free = append(free, id)
					canceled[id] = true
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
				for i, id := range got {
					if id != want[i].id {
						t.Fatalf("seed %d step %d at t=%d: firing order diverges at %d: queue id %d, reference id %d",
							seed, step, nt, i, id, want[i].id)
					}
					delete(live, id)
					free = append(free, id)
					popped[id] = true
				}
			}
			if q.Len() != len(ref.entries) {
				t.Fatalf("seed %d step %d: Len %d != reference %d", seed, step, q.Len(), len(ref.entries))
			}
			for id, e := range live {
				if at, seq, ok := q.Queued(id); !ok || at != e.at || seq != e.seq {
					t.Fatalf("seed %d step %d: Queued(%d) = (%d, %d, %v), want (%d, %d, true)",
						seed, step, id, at, seq, ok, e.at, e.seq)
				}
			}
			for _, id := range free {
				if _, _, ok := q.Queued(id); ok {
					t.Fatalf("seed %d step %d: freed id %d still reported queued", seed, step, id)
				}
			}
		}
		if reusedPop == 0 || reusedCancel == 0 {
			t.Fatalf("seed %d: reused %d popped and %d canceled ids; the run does not exercise reuse",
				seed, reusedPop, reusedCancel)
		}
	}
}

// TestSameInstantSeqOrder pins the FIFO tie-break: timers due at one
// instant fire in ascending seq order whatever order they were pushed
// in (Restore pushes checkpointed timers with their recorded seqs) and
// whatever other instants surround them.
func TestSameInstantSeqOrder(t *testing.T) {
	var q Timers
	const at = Time(1000)
	const n = 12
	rng := rand.New(rand.NewSource(3))
	for i, seq := range rng.Perm(n) {
		q.Push(seq, at, seq)
		// Surround the batch with earlier and later instants; their ids
		// follow the batch's.
		q.Push(n+2*i, at-Time(1+rng.Intn(100)), 100+seq)
		q.Push(n+2*i+1, at+Time(1+rng.Intn(100)), 200+seq)
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
	if len(got) != n {
		t.Fatalf("fired %d timers, want %d", len(got), n)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("firing order[%d] = id %d, want %d", i, id, i)
		}
		if _, _, ok := q.Queued(id); ok {
			t.Fatalf("timer %d still queued after firing", id)
		}
	}
}

// TestCancelUnqueued pins Cancel's report on never-queued and
// already-fired ids, including one past the position table.
func TestCancelUnqueued(t *testing.T) {
	var q Timers
	if q.Cancel(0) || q.Cancel(1000) {
		t.Fatal("Cancel of a never-queued id reported true")
	}
	q.Push(3, 10, 1)
	if q.Cancel(2) {
		t.Fatal("Cancel of an unqueued id below a queued one reported true")
	}
	if got := popAllDue(&q, 10); len(got) != 1 || got[0] != 3 {
		t.Fatalf("PopDue = %v, want [3]", got)
	}
	if q.Cancel(3) {
		t.Fatal("Cancel after firing reported true")
	}
}

// TestPushQueuedIDPanics: an id names at most one queued timer.
func TestPushQueuedIDPanics(t *testing.T) {
	var q Timers
	q.Push(1, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Push of a queued id did not panic")
		}
	}()
	q.Push(1, 20, 2)
}

// TestZeroAllocSteadyState pins the zero-alloc property of the hot
// operations: once the heap and position table are warm, schedule /
// cancel / fire allocate nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	var q Timers
	const n = 64
	now := Time(0)
	seq := 0
	cycle := func() {
		for id := 0; id < n; id++ {
			seq++
			q.Push(id, now+Time(1+(id*7)%300), seq)
		}
		for id := 0; id < n; id += 2 { // cancel half, fire half
			q.Cancel(id)
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
	cycle() // warm up the backing arrays
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule/cancel/fire allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestTimersPointerFree pins the reason the queue is id-keyed: neither
// a heap cell nor the position table may hold a pointer, so sifting
// never pays a write barrier and the collector never scans the queue.
func TestTimersPointerFree(t *testing.T) {
	var q Timers
	for _, typ := range []reflect.Type{
		reflect.TypeOf(q.h).Elem(),
		reflect.TypeOf(q.pos).Elem(),
	} {
		if p := pointerPath(typ); p != "" {
			t.Errorf("%s holds a pointer at %s", typ, p)
		}
	}
}

// pointerPath returns where typ holds a pointer, or "" if it holds none.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if p := pointerPath(typ.Elem()); p != "" {
			return "[]" + p
		}
		return ""
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type); p != "" {
				return "." + f.Name + p
			}
		}
		return ""
	default:
		return " (" + typ.Kind().String() + ")"
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	var q Timers
	const n = 128
	b.ReportAllocs()
	b.ResetTimer()
	seq := 0
	for i := 0; i < b.N; i++ {
		for id := 0; id < n; id++ {
			seq++
			q.Push(id, Time(seq+id%977), seq)
		}
		for id := 0; id < n; id++ {
			q.Cancel(id)
		}
	}
}

// TestEachEnumeratesAll pins Each against a randomized population: every
// queued timer is visited exactly once with the due time and tie-break
// it was pushed with, canceled and fired ones are not, and the
// enumeration stays consistent with Len.
func TestEachEnumeratesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Timers
	alive := map[int]refEntry{}
	now := Time(0)
	for id := 0; id < 500; id++ {
		e := refEntry{id: id, at: now + Time(rng.Int63n(1<<20)), seq: id + 1}
		q.Push(id, e.at, e.seq)
		alive[id] = e
		if rng.Intn(4) == 0 { // cancel a random survivor
			for victim := range alive {
				if q.Cancel(victim) {
					delete(alive, victim)
				}
				break
			}
		}
		if rng.Intn(8) == 0 { // advance to the next due instant
			if at, ok := q.Next(); ok {
				now = at
				for _, due := range popAllDue(&q, at) {
					delete(alive, due)
				}
			}
		}
	}
	seen := map[int]int{}
	q.Each(func(id int, at Time, seq int) {
		seen[id]++
		if e, ok := alive[id]; ok && (e.at != at || e.seq != seq) {
			t.Errorf("Each reported timer %d at (%d, %d), pushed at (%d, %d)", id, at, seq, e.at, e.seq)
		}
	})
	if len(seen) != len(alive) || len(seen) != q.Len() {
		t.Fatalf("Each visited %d timers, want %d alive (Len=%d)", len(seen), len(alive), q.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("Each visited timer %d %d times", id, n)
		}
		if _, ok := alive[id]; !ok {
			t.Fatalf("Each visited timer %d which was canceled or fired", id)
		}
	}
}
