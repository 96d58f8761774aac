package rtc

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// pingPong is the context-switch workload of internal/perf's
// rtc/context-switch scenario: two tasks handing the CPU back and forth
// through a semaphore pair, n rounds.
func pingPong(n int) Workload {
	return Workload{
		Policy: "priority",
		Channels: []ChannelDef{
			{Name: "ping", Kind: "semaphore", Arg: 0},
			{Name: "pong", Kind: "semaphore", Arg: 0},
		},
		Tasks: []TaskDef{
			{Name: "a", Type: "aperiodic", Prio: 1, Repeat: n, Ops: []Op{
				{Kind: "delay", Dur: 1},
				{Kind: "release", Ch: "ping"},
				{Kind: "acquire", Ch: "pong"},
			}},
			{Name: "b", Type: "aperiodic", Prio: 2, Repeat: n, Ops: []Op{
				{Kind: "acquire", Ch: "ping"},
				{Kind: "release", Ch: "pong"},
			}},
		},
		Horizon: sim.Time(n)*8 + sim.Second,
	}
}

func BenchmarkContextSwitch(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	r := Run(pingPong(b.N))
	if r.Err != nil {
		b.Fatal(r.Err)
	}
}

// TestSteadyStateAllocs pins the zero-alloc claim: after warm-up the
// engine's dispatch/timer/channel paths must not allocate.
func TestSteadyStateAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		r := Run(pingPong(2000))
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	})
	// A run allocates its kernel, machines and frames once; 2000 rounds
	// must not scale that. Generous fixed budget for the setup.
	if allocs > 200 {
		t.Errorf("AllocsPerRun = %.0f for 2000 rounds; steady state allocates", allocs)
	}
}

func BenchmarkScheduler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := Workload{
			Policy:    "priority",
			TimeModel: core.TimeModelSegmented,
			Horizon:   250 * sim.Millisecond,
		}
		for j := 0; j < 8; j++ {
			w.Tasks = append(w.Tasks, TaskDef{
				Name: fmt.Sprintf("t%d", j), Type: "periodic", Prio: j,
				Period:   sim.Time(j+1) * sim.Millisecond,
				Segments: []sim.Time{sim.Time(j+1) * 100 * sim.Microsecond},
			})
		}
		if r := Run(w); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

// sweepSessions returns the 60 configurations of a design-space sweep
// over one seeded 8-task periodic set (U = 0.85, periods 5–50 ms,
// rate-monotonic priorities, 50 ms horizon): 5 policies × 3
// personalities × 2 time models × 2 quanta.
func sweepSessions(seed uint64) []Workload {
	rng := workload.NewRNG(seed)
	periods := []float64{5, 5, 10, 10, 20, 25, 25, 50} // ms
	for i := len(periods) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		periods[i], periods[j] = periods[j], periods[i]
	}
	utils := workload.UUniFast(rng, len(periods), 0.85)
	var tasks []TaskDef
	for i, p := range periods {
		period := sim.Time(p) * sim.Millisecond
		wcet := min(max(sim.Time(math.Round(float64(period)*utils[i])), sim.Microsecond), period)
		tasks = append(tasks, TaskDef{Name: fmt.Sprintf("t%d", i), Type: "periodic",
			Period: period, Segments: []sim.Time{wcet}})
	}
	byPeriod := make([]int, len(tasks))
	for i := range byPeriod {
		byPeriod[i] = i
	}
	sort.SliceStable(byPeriod, func(a, b int) bool { return tasks[byPeriod[a]].Period < tasks[byPeriod[b]].Period })
	for rank, i := range byPeriod {
		tasks[i].Prio = rank + 1
	}
	var ws []Workload
	for _, policy := range []string{"fcfs", "rr", "priority", "rm", "edf"} {
		for _, pers := range []string{"generic", "itron", "osek"} {
			for _, tm := range []core.TimeModel{core.TimeModelCoarse, core.TimeModelSegmented} {
				for _, q := range []sim.Time{sim.Millisecond, 5 * sim.Millisecond} {
					ws = append(ws, Workload{Name: "PE", Policy: policy, Personality: pers,
						TimeModel: tm, Quantum: q, Tasks: tasks, Horizon: 50 * sim.Millisecond})
				}
			}
		}
	}
	return ws
}

// BenchmarkSweepSessions runs the 60 sessions of sweepSessions per op,
// each as NewSession -> RunUntil -> Finish: the engine's share of an
// in-process design-space sweep, with no exploration, caching or oracle
// around it, so the sweep path can be profiled on its own.
func BenchmarkSweepSessions(b *testing.B) {
	ws := sweepSessions(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			s, err := NewSession(w)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.RunUntil(w.Horizon); err != nil {
				b.Fatal(err)
			}
			s.Finish()
		}
	}
}
