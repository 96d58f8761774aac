package channel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestQueueRingWrapFIFO drives blocking Send/Recv through small queues
// with seeded, uneven delays on both sides, so the ring fills, drains and
// wraps around many times; every element must arrive once and in order,
// and Len must stay within Cap.
func TestQueueRingWrapFIFO(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			bothModes(t, func(t *testing.T, mode string) {
				h := newHarness(mode)
				q := NewQueue[int](h.f, "q", capacity)
				rng := rand.New(rand.NewSource(int64(capacity)))
				const n = 200
				sendGap := make([]sim.Time, n)
				recvGap := make([]sim.Time, n)
				for i := range sendGap {
					sendGap[i] = sim.Time(rng.Intn(4))
					recvGap[i] = sim.Time(rng.Intn(4))
				}
				var got []int
				wrapped := false
				// The sender outranks the receiver, so on the RTOS layer it
				// fills the queue before the receiver drains it.
				h.spawn("recv", 2, func(p *sim.Proc) {
					for i := 0; i < n; i++ {
						if recvGap[i] > 0 {
							h.f.Delay(p, recvGap[i])
						}
						got = append(got, q.Recv(p))
					}
				})
				h.spawn("send", 1, func(p *sim.Proc) {
					for i := 0; i < n; i++ {
						if sendGap[i] > 0 {
							h.f.Delay(p, sendGap[i])
						}
						q.Send(p, i)
						wrapped = wrapped || q.head+q.n > len(q.ring)
						if q.Len() > q.Cap() {
							t.Errorf("Len %d > Cap %d", q.Len(), q.Cap())
						}
					}
				})
				h.run(t)
				if len(got) != n {
					t.Fatalf("received %d elements, want %d", len(got), n)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, v, i)
					}
				}
				if capacity > 1 && !wrapped {
					t.Error("ring never wrapped around; the schedule does not exercise it")
				}
				if q.Len() != 0 || q.Sent() != n || q.Received() != n {
					t.Errorf("Len=%d sent=%d received=%d, want 0, %d, %d", q.Len(), q.Sent(), q.Received(), n, n)
				}
			})
		})
	}
}

// TestQueueRingTryOps checks TrySend/TryRecv, Len and Cap against a
// plain slice model over a seeded random operation sequence.
func TestQueueRingTryOps(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8} {
		h := newHarness("spec")
		q := NewQueue[int](h.f, "q", capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		h.spawn("w", 0, func(p *sim.Proc) {
			var model []int
			for i := 0; i < 1000; i++ {
				if rng.Intn(2) == 0 {
					ok := q.TrySend(p, i)
					if want := len(model) < capacity; ok != want {
						t.Errorf("cap %d op %d: TrySend = %v, want %v", capacity, i, ok, want)
						return
					}
					if ok {
						model = append(model, i)
					}
				} else {
					v, ok := q.TryRecv(p)
					if want := len(model) > 0; ok != want {
						t.Errorf("cap %d op %d: TryRecv ok = %v, want %v", capacity, i, ok, want)
						return
					}
					if ok {
						if v != model[0] {
							t.Errorf("cap %d op %d: TryRecv = %d, want %d", capacity, i, v, model[0])
							return
						}
						model = model[1:]
					} else if v != 0 {
						t.Errorf("cap %d op %d: failed TryRecv returned %d, want zero value", capacity, i, v)
						return
					}
				}
				if q.Len() != len(model) || q.Cap() != capacity {
					t.Errorf("cap %d op %d: Len/Cap = %d/%d, want %d/%d", capacity, i, q.Len(), q.Cap(), len(model), capacity)
					return
				}
			}
		})
		h.run(t)
	}
}

// TestQueueRingClearsPoppedSlots: a received element must not stay
// referenced from the ring.
func TestQueueRingClearsPoppedSlots(t *testing.T) {
	h := newHarness("spec")
	q := NewQueue[*int](h.f, "q", 4)
	h.spawn("w", 0, func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			v := i
			q.Send(p, &v)
			if i%2 == 1 {
				q.Recv(p)
			}
		}
		for q.Len() > 0 {
			q.Recv(p)
		}
	})
	h.run(t)
	for i, v := range q.ring {
		if v != nil {
			t.Errorf("ring slot %d still holds %d after every element was received", i, *v)
		}
	}
}

// TestQueueRingFollowsOccupancy: a queue declared with a huge capacity
// that never holds more than four elements keeps a small buffer.
func TestQueueRingFollowsOccupancy(t *testing.T) {
	h := newHarness("spec")
	q := NewQueue[int64](h.f, "q", 1<<20)
	h.spawn("w", 0, func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			for j := 0; j < 1+i%4; j++ {
				q.Send(p, int64(j))
			}
			for q.Len() > 0 {
				q.Recv(p)
			}
		}
	})
	h.run(t)
	if len(q.ring) > minRing {
		t.Errorf("ring holds %d slots for a peak occupancy of 4, want at most %d", len(q.ring), minRing)
	}
}

// TestQueueSteadyStateAllocs pins zero allocations for steady-state
// blocking Send/Recv traffic in both modeling layers, measured over
// RunUntil slices of a kernel whose processes loop forever (the
// allocs_test.go pattern at the repository root).
func TestQueueSteadyStateAllocs(t *testing.T) {
	bothModes(t, func(t *testing.T, mode string) {
		h := newHarness(mode)
		defer h.k.Shutdown()
		q := NewQueue[int](h.f, "q", 3)
		// Bursts of five through a queue of three: the sender outranks
		// the receiver, so both sides block and the ring wraps.
		h.spawn("recv", 2, func(p *sim.Proc) {
			for {
				q.Recv(p)
			}
		})
		h.spawn("send", 1, func(p *sim.Proc) {
			for i := 0; ; i++ {
				h.f.Delay(p, 1)
				for j := 0; j < 5; j++ {
					q.Send(p, i)
				}
			}
		})
		if h.os != nil {
			h.os.Start(nil)
		}
		horizon := sim.Time(0)
		step := func() {
			horizon += 100
			if err := h.k.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm-up: ring growth, pools, stacks
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Errorf("%.1f allocs per 100-tick slice of queue traffic, want 0", avg)
		}
		if q.Received() == 0 {
			t.Fatal("no element received; the scenario does not exercise the queue")
		}
	})
}
