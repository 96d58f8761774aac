// Personality dispatch overhead: the personality layer routes every task
// lifecycle and channel operation through one interface call before it
// reaches the core services. The guard pins that indirection to ≤5% on
// the hottest BENCH_kernel.json scenario (kernel/context-switch), per
// personality, against the same scenario programmed directly against the
// core service surface.
//
//	go test -bench 'BenchmarkPersonality' -benchmem
//	PERSONALITY_OVERHEAD_GUARD=1 go test -run TestPersonalityOverheadGuard
package repro

import (
	"cmp"
	"os"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/sim"
)

// personalitySwitchOps sizes the guard workload: enough dispatch round
// trips that per-op costs dominate kernel setup.
const personalitySwitchOps = 20_000

// contextSwitchDirect is the BENCH_kernel.json kernel/context-switch
// scenario shape — two tasks handing the CPU back and forth through a
// semaphore pair — programmed directly against the core services.
func contextSwitchDirect(tb testing.TB, n int) {
	tb.Helper()
	k := sim.NewKernel()
	defer k.Shutdown()
	rtos := core.New(k, "PE", core.PriorityPolicy{})
	f := channel.RTOSFactory{OS: rtos}
	ping := channel.NewSemaphore(f, "ping", 0)
	pong := channel.NewSemaphore(f, "pong", 0)
	a := rtos.TaskCreate("a", core.Aperiodic, 0, 0, 1)
	c := rtos.TaskCreate("b", core.Aperiodic, 0, 0, 2)
	k.Spawn("a", func(p *sim.Proc) {
		rtos.TaskActivate(p, a)
		for i := 0; i < n; i++ {
			rtos.TimeWait(p, 1)
			ping.Release(p)
			pong.Acquire(p)
		}
		rtos.TaskTerminate(p)
	})
	k.Spawn("b", func(p *sim.Proc) {
		rtos.TaskActivate(p, c)
		for i := 0; i < n; i++ {
			ping.Acquire(p)
			pong.Release(p)
		}
		rtos.TaskTerminate(p)
	})
	rtos.Start(nil)
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
}

// contextSwitchPersonality is the same scenario programmed against the
// personality interface, with the semaphores in the selected kernel's
// native kind.
func contextSwitchPersonality(tb testing.TB, kind string, n int) {
	tb.Helper()
	k := sim.NewKernel()
	defer k.Shutdown()
	rtos := core.New(k, "PE", core.PriorityPolicy{})
	rt, err := personality.New(kind, rtos)
	if err != nil {
		tb.Fatal(err)
	}
	ping := rt.NewSemaphore("ping", 0)
	pong := rt.NewSemaphore("pong", 0)
	a := rt.TaskCreate("a", core.Aperiodic, 0, 0, 1)
	c := rt.TaskCreate("b", core.Aperiodic, 0, 0, 2)
	k.Spawn("a", func(p *sim.Proc) {
		rt.Activate(p, a)
		for i := 0; i < n; i++ {
			rt.Compute(p, 1)
			ping.Release(p)
			pong.Acquire(p)
		}
		rt.Terminate(p)
	})
	k.Spawn("b", func(p *sim.Proc) {
		rt.Activate(p, c)
		for i := 0; i < n; i++ {
			ping.Acquire(p)
			pong.Release(p)
		}
		rt.Terminate(p)
	})
	rtos.Start(nil)
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkPersonalityContextSwitchDirect(b *testing.B) {
	b.ReportAllocs()
	contextSwitchDirect(b, b.N)
}

func BenchmarkPersonalityContextSwitch(b *testing.B) {
	for _, kind := range personality.Kinds() {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			contextSwitchPersonality(b, kind, b.N)
		})
	}
}

// TestPersonalityOverheadGuard pins the cost of the personality layer on
// the context-switch scenario. The generic personality is a pure
// passthrough, so its run isolates the dispatch indirection itself and
// must stay within 5% of the direct-call baseline. The native kernels do
// real extra work per operation (ITRON's direct-handoff grant tracking,
// OSEK-COM queue bookkeeping), so they get a looser semantic bound that
// still catches accidental O(n) regressions. The guard is opt-in
// (scripts/check.sh sets PERSONALITY_OVERHEAD_GUARD=1) to keep plain
// `go test` immune to loaded hosts.
//
// Every arm is timed by the process's CPU time, not the wall clock, so
// time the host gives to other processes does not count, and each sample
// starts from a fresh collection, so no arm pays for garbage another left
// behind. The rounds are interleaved — every arm once per round, the
// order rotating from round to round so no arm always runs first — and
// each personality sample is divided by the direct sample of its own
// round; the guard compares the median of these paired ratios, so a slow
// stretch of the host scales both halves of a pair instead of skewing
// one arm's median.
func TestPersonalityOverheadGuard(t *testing.T) {
	if os.Getenv("PERSONALITY_OVERHEAD_GUARD") != "1" {
		t.Skip("set PERSONALITY_OVERHEAD_GUARD=1 to run the overhead guard")
	}
	const rounds = 51
	const maxDispatchRatio = 1.05 // generic: the interface layer alone
	const maxNativeRatio = 1.20   // itron/osek: dispatch + native semantics

	const direct = "direct"
	arms := append([]string{direct}, personality.Kinds()...)
	run := func(arm string) {
		if arm == direct {
			contextSwitchDirect(t, personalitySwitchOps)
		} else {
			contextSwitchPersonality(t, arm, personalitySwitchOps)
		}
	}
	// Warm-up: lazy initialization off the clock for every path.
	for _, arm := range arms {
		run(arm)
	}
	var base []time.Duration
	ratios := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		cpu := make([]time.Duration, len(arms))
		for i := range arms {
			a := (r + i) % len(arms)
			runtime.GC()
			start := processCPU(t)
			run(arms[a])
			cpu[a] = processCPU(t) - start
		}
		base = append(base, cpu[0])
		for a, kind := range arms[1:] {
			ratios[kind] = append(ratios[kind], float64(cpu[a+1])/float64(cpu[0]))
		}
	}
	for _, kind := range arms[1:] {
		maxRatio := maxNativeRatio
		if kind == personality.Generic {
			maxRatio = maxDispatchRatio
		}
		ratio := median(ratios[kind])
		t.Logf("%s: median paired CPU ratio %.3fx vs direct %v (limit %.2fx)", kind, ratio, median(base), maxRatio)
		if ratio > maxRatio {
			t.Errorf("%s personality overhead %.3fx exceeds %.2fx of the direct baseline",
				kind, ratio, maxRatio)
		}
	}
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle sample (the upper one of an even count).
func median[T cmp.Ordered](ds []T) T {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
