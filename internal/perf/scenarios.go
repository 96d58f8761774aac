package perf

import (
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scenario is one named benchmark of the kernel hot path.
type Scenario struct {
	Name  string
	Bench func(b *testing.B)
}

// Scenarios returns the fixed scenario set, mirroring the hot-path
// benchmarks of bench_test.go plus a large synthetic taskset sweep and a
// timer-churn case. Names are stable: they key the baseline comparison.
func Scenarios() []Scenario {
	scns := []Scenario{
		{Name: "kernel/context-switch", Bench: benchContextSwitch},
		{Name: "sim/waitfor", Bench: benchWaitFor},
		{Name: "timer/schedule-cancel", Bench: benchTimerChurn},
	}
	policies := []core.Policy{
		core.FCFSPolicy{},
		core.RoundRobinPolicy{Quantum: 5 * sim.Millisecond},
		core.PriorityPolicy{},
		core.RMPolicy{},
		core.EDFPolicy{},
	}
	for _, pol := range policies {
		pol := pol
		scns = append(scns, Scenario{
			Name:  "sched/" + pol.Name(),
			Bench: func(b *testing.B) { benchScheduler(b, pol, 8, 0.85, 2*sim.Second) },
		})
	}
	for _, n := range []int{32, 128} {
		n := n
		scns = append(scns, Scenario{
			Name:  fmt.Sprintf("sweep/tasks-%d", n),
			Bench: func(b *testing.B) { benchScheduler(b, core.EDFPolicy{}, n, 0.9, 250*sim.Millisecond) },
		})
	}
	// The same hot paths on the run-to-completion engine (internal/rtc):
	// trace-equivalent to the goroutine kernel, so these measure pure
	// execution-engine overhead against their kernel/* and sched/*
	// counterparts.
	scns = append(scns,
		Scenario{Name: "rtc/context-switch", Bench: benchRTCContextSwitch},
		Scenario{Name: "rtc/timer/churn", Bench: benchRTCTimerChurn},
	)
	for _, pol := range []string{"fcfs", "rr", "priority", "rm", "edf"} {
		pol := pol
		scns = append(scns, Scenario{
			Name:  "rtc/sched/" + pol,
			Bench: func(b *testing.B) { benchRTCScheduler(b, pol, 8, 0.85, 2*sim.Second) },
		})
	}
	return scns
}

// benchContextSwitch is the RTOS dispatch round trip: two tasks handing
// the CPU back and forth through a semaphore pair (the shape of
// BenchmarkKernelContextSwitch). Reports modeled context switches per
// wall-clock second.
func benchContextSwitch(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	defer k.Shutdown()
	rtos := core.New(k, "PE", core.PriorityPolicy{})
	f := channel.RTOSFactory{OS: rtos}
	ping := channel.NewSemaphore(f, "ping", 0)
	pong := channel.NewSemaphore(f, "pong", 0)
	a := rtos.TaskCreate("a", core.Aperiodic, 0, 0, 1)
	c := rtos.TaskCreate("b", core.Aperiodic, 0, 0, 2)
	n := b.N
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
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(rtos.StatsSnapshot().ContextSwitches)/sec, switchesMetric)
	}
}

// benchWaitFor is the bare kernel's waitfor throughput (the shape of
// BenchmarkSimPrimitives).
func benchWaitFor(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	defer k.Shutdown()
	n := b.N
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.WaitFor(10)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchTimerChurn schedules and cancels one timer per op: a waiter blocks
// in WaitTimeout and a notifier wakes it before the timeout, cancelling
// the heap entry. This is the cancel-heavy pattern of fault campaigns and
// exercises the heap's in-place removal.
func benchTimerChurn(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	defer k.Shutdown()
	ev := k.NewEvent("ev")
	n := b.N
	k.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if p.WaitTimeout(ev, sim.Second) {
				continue
			}
			b.Error("timer fired; expected notification")
			return
		}
	})
	k.Spawn("notifier", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Notify(ev)
			p.YieldDelta()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchRTCContextSwitch is benchContextSwitch on the run-to-completion
// engine: the identical ping/pong semaphore pair, dispatched without
// goroutines or channels. Reports modeled context switches per second.
func benchRTCContextSwitch(b *testing.B) {
	b.ReportAllocs()
	n := b.N
	w := rtc.Workload{
		Policy: "priority",
		Channels: []rtc.ChannelDef{
			{Name: "ping", Kind: "semaphore", Arg: 0},
			{Name: "pong", Kind: "semaphore", Arg: 0},
		},
		Tasks: []rtc.TaskDef{
			{Name: "a", Type: "aperiodic", Prio: 1, Repeat: n, Ops: []rtc.Op{
				{Kind: "delay", Dur: 1},
				{Kind: "release", Ch: "ping"},
				{Kind: "acquire", Ch: "pong"},
			}},
			{Name: "b", Type: "aperiodic", Prio: 2, Repeat: n, Ops: []rtc.Op{
				{Kind: "acquire", Ch: "ping"},
				{Kind: "release", Ch: "pong"},
			}},
		},
		Horizon: sim.Time(n)*8 + sim.Second,
	}
	b.ResetTimer()
	r := rtc.Run(w)
	if r.Err != nil {
		b.Fatal(r.Err)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(r.Stats.ContextSwitches)/sec, switchesMetric)
	}
}

// benchRTCTimerChurn is a preemption storm on the rtc engine's timer
// queue: a fast high-priority ticker preempts a long low-priority delay
// under the segmented model, so every tick cancels the running segment's
// timer entry and re-arms it with the remaining time.
func benchRTCTimerChurn(b *testing.B) {
	b.ReportAllocs()
	n := b.N
	w := rtc.Workload{
		Policy:    "priority",
		TimeModel: core.TimeModelSegmented,
		Tasks: []rtc.TaskDef{
			{Name: "tick", Type: "periodic", Prio: 1, Period: 10 * sim.Microsecond,
				Cycles: n, Segments: []sim.Time{sim.Microsecond}},
			{Name: "crunch", Type: "aperiodic", Prio: 2,
				Ops: []rtc.Op{{Kind: "delay", Dur: 3600 * sim.Second}}},
		},
		Horizon: sim.Time(n)*10*sim.Microsecond + sim.Millisecond,
	}
	b.ResetTimer()
	r := rtc.Run(w)
	if r.Err != nil {
		b.Fatal(r.Err)
	}
}

// benchRTCScheduler is benchScheduler on the run-to-completion engine:
// the same synthetic periodic set (same RNG seed), segmented time model,
// one full simulation per op.
func benchRTCScheduler(b *testing.B, policy string, n int, util float64, horizon sim.Time) {
	b.ReportAllocs()
	var switches uint64
	for i := 0; i < b.N; i++ {
		specs := workload.PeriodicSet(workload.NewRNG(7), n, util)
		w := rtc.Workload{
			Policy:    policy,
			Quantum:   5 * sim.Millisecond,
			TimeModel: core.TimeModelSegmented,
			Horizon:   horizon,
		}
		for _, s := range specs {
			w.Tasks = append(w.Tasks, rtc.TaskDef{
				Name: s.Name, Type: "periodic", Prio: s.Prio,
				Period: s.Period, Segments: []sim.Time{s.WCET},
			})
		}
		r := rtc.Run(w)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		switches += r.Stats.ContextSwitches
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(switches)/sec, switchesMetric)
	}
}

// benchScheduler simulates one synthetic periodic task set per op under
// the given policy (the shape of BenchmarkSchedulers; with larger n the
// taskset sweep). Reports modeled context switches per wall-clock second.
func benchScheduler(b *testing.B, pol core.Policy, n int, util float64, horizon sim.Time) {
	b.ReportAllocs()
	var switches uint64
	for i := 0; i < b.N; i++ {
		specs := workload.PeriodicSet(workload.NewRNG(7), n, util)
		res, err := workload.Run(specs, pol, core.TimeModelSegmented, horizon)
		if err != nil {
			b.Fatal(err)
		}
		switches += res.ContextSwitches
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(switches)/sec, switchesMetric)
	}
}
