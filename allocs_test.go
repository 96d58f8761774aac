// Steady-state allocation gates for the simulation hot path. The kernel
// pools processes and timer entries and reuses event/ready slices, so once
// a run is warmed up, context switches and timer churn must not allocate
// at all (with no telemetry observer attached — the observer path
// legitimately builds event values). Each test keeps one kernel alive with
// forever-looping processes and measures testing.AllocsPerRun over
// RunUntil slices, so only steady-state work is counted: a single new
// allocation per slice fails the build.
package repro

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/sim"
)

// measureSteadyState warms the simulation up (pool population, goroutine
// stack growth, slice capacity growth) and then asserts that advancing the
// horizon by `slice` allocates nothing.
func measureSteadyState(t *testing.T, k *sim.Kernel, slice sim.Time, what string) {
	t.Helper()
	horizon := sim.Time(0)
	step := func() {
		horizon += slice
		if err := k.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm-up slice (AllocsPerRun adds one more internally)
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Errorf("%s: %.1f allocs per %v slice, want 0", what, avg, slice)
	}
}

// TestAllocsContextSwitch pins zero allocations per RTOS context-switch
// round trip: two tasks ping-ponging through a semaphore pair (the
// BenchmarkKernelContextSwitch shape), ~1000 dispatch round trips per
// measured slice.
func TestAllocsContextSwitch(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	rtos := core.New(k, "PE", core.PriorityPolicy{})
	f := channel.RTOSFactory{OS: rtos}
	ping := channel.NewSemaphore(f, "ping", 0)
	pong := channel.NewSemaphore(f, "pong", 0)
	a := rtos.TaskCreate("a", core.Aperiodic, 0, 0, 1)
	b := rtos.TaskCreate("b", core.Aperiodic, 0, 0, 2)
	k.Spawn("a", func(p *sim.Proc) {
		rtos.TaskActivate(p, a)
		for {
			rtos.TimeWait(p, 1)
			ping.Release(p)
			pong.Acquire(p)
		}
	})
	k.Spawn("b", func(p *sim.Proc) {
		rtos.TaskActivate(p, b)
		for {
			ping.Acquire(p)
			pong.Release(p)
		}
	})
	rtos.Start(nil)
	measureSteadyState(t, k, 1000, "context switch")
}

// TestAllocsTimerScheduleCancel pins zero allocations per timer
// schedule+cancel pair: a waiter blocks in WaitTimeout (scheduling a
// timeout timer) and is notified before expiry (cancelling it) — the
// cancel-heavy pattern of fault campaigns. Timer entries must come from
// the kernel's free list, and a cancel must remove its entry from the
// heap in place.
func TestAllocsTimerScheduleCancel(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	ev := k.NewEvent("ev")
	k.Spawn("waiter", func(p *sim.Proc) {
		for {
			if !p.WaitTimeout(ev, sim.Second) {
				t.Error("timeout fired; expected notification")
				return
			}
		}
	})
	k.Spawn("notifier", func(p *sim.Proc) {
		for {
			p.Notify(ev)
			p.WaitFor(1)
		}
	})
	measureSteadyState(t, k, 1000, "timer schedule/cancel")
}

// TestAllocsWaitFor pins zero allocations per bare-kernel WaitFor step
// (timer schedule + fire, no RTOS layer at all).
func TestAllocsWaitFor(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	k.Spawn("p", func(p *sim.Proc) {
		for {
			p.WaitFor(10)
		}
	})
	measureSteadyState(t, k, 10_000, "WaitFor")
}
