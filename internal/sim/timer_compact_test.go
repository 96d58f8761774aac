package sim

import "testing"

// TestTimerCancelCompaction pins the heap-compaction invariant directly:
// canceled entries are dropped eagerly once they reach timerCompactMin and
// would make up half the heap, so a cancel-heavy run keeps the heap's
// physical length bounded by the live timer count, not by the cancelation
// history.
func TestTimerCancelCompaction(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	ev := k.NewEvent("ev")

	const rounds = 10_000
	// background keeps a far-future timer alive so the heap never empties
	// between rounds (emptying would reset the count trivially).
	bg := k.Spawn("bg", func(p *Proc) { p.WaitFor(Forever - 1) })
	bg.SetDaemon(true)

	maxLen := 0
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			// Schedule a timeout timer, then have it canceled by the
			// notifier's wake-up: every round adds one entry and cancels it.
			if !p.WaitTimeout(ev, Second) {
				t.Error("timeout fired; expected notification")
				return
			}
			if n := k.timerHeapLen(); n > maxLen {
				maxLen = n
			}
		}
		// The waiter's own timers have all been canceled; only the
		// background timer is live, whatever the physical heap holds.
		if got := k.PendingTimers(); got != 1 {
			t.Errorf("PendingTimers mid-run = %d, want 1 (background timer)", got)
		}
	})
	k.Spawn("notifier", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Notify(ev)
			p.YieldDelta()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	// At any instant there are at most 2 live timers (background + the
	// waiter's current timeout). Compaction triggers once canceled entries
	// reach timerCompactMin and outnumber live ones, so the physical heap
	// must stay within the threshold band — far below the 10k cancels.
	bound := 2 * (timerCompactMin + 2)
	if maxLen > bound {
		t.Errorf("timer heap grew to %d entries across %d cancels, want <= %d", maxLen, rounds, bound)
	}
}

// TestTimerCompactionBelowThreshold pins the other side of the threshold:
// a handful of cancels is tolerated in place (popped lazily) rather than
// triggering a compaction sweep, and PendingTimers excludes them.
func TestTimerCompactionBelowThreshold(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	ev := k.NewEvent("ev")
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < timerCompactMin/2; i++ {
			if !p.WaitTimeout(ev, Second) {
				t.Error("timeout fired; expected notification")
				return
			}
		}
		// All cancels are still physically in the heap (no compaction has
		// run: the count never reached timerCompactMin), but none are live.
		if got := k.PendingTimers(); got != 0 {
			t.Errorf("PendingTimers mid-run = %d, want 0", got)
		}
		if k.timers.canceled == 0 {
			t.Error("expected lazily retained canceled entries below the compaction threshold")
		}
	})
	k.Spawn("notifier", func(p *Proc) {
		for i := 0; i < timerCompactMin/2; i++ {
			p.Notify(ev)
			p.YieldDelta()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// timerHeapLen exposes the physical heap length to tests in this package.
func (k *Kernel) timerHeapLen() int { return len(k.timers.h) }
