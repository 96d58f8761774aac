package sim

import "testing"

// TestTimerCancelCompaction pins that cancelation removes entries in
// place: a cancel-heavy run keeps the heap's physical length at the live
// timer count, not at the cancelation history.
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
		// background timer is live.
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
	// waiter's current timeout), and the heap holds nothing else.
	bound := 2
	if maxLen > bound {
		t.Errorf("timer heap grew to %d entries across %d cancels, want <= %d", maxLen, rounds, bound)
	}
}

// timerHeapLen exposes the physical heap length to tests in this package.
func (k *Kernel) timerHeapLen() int { return len(k.timers.h) }
