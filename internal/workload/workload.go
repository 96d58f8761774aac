// Package workload generates synthetic task sets for the scheduling
// experiments (DESIGN.md experiment SCHED): periodic sets with controlled
// total utilization (UUniFast) and deterministic pseudo-random parameters,
// plus a harness that simulates a set on the RTOS model and collects
// deadline statistics.
package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RNG is a small deterministic SplitMix64 generator, so experiments are
// reproducible across runs and platforms.
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0,n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Intn(%d)", n))
	}
	return int(r.Uint64() % uint64(n))
}

// TaskSpec describes one periodic task of a generated set.
type TaskSpec struct {
	Name   string
	Period sim.Time
	WCET   sim.Time
	Prio   int
}

// standard period menu: 10 ms .. 1 s, log-ish spaced.
var periodMenu = []sim.Time{
	10 * sim.Millisecond, 20 * sim.Millisecond, 50 * sim.Millisecond,
	100 * sim.Millisecond, 200 * sim.Millisecond, 500 * sim.Millisecond,
	1000 * sim.Millisecond,
}

// UUniFast distributes a total utilization over n tasks (Bini & Buttazzo).
func UUniFast(rng *RNG, n int, total float64) []float64 {
	u := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-i-1))
		u[i] = sum - next
		sum = next
	}
	u[n-1] = sum
	return u
}

// PeriodicSet generates n periodic tasks with total utilization util.
// Priorities are assigned rate-monotonically by index after sorting is NOT
// performed — callers using RM should rely on core's RMPolicy assignment.
func PeriodicSet(rng *RNG, n int, util float64) []TaskSpec {
	if n < 1 {
		panic("workload: PeriodicSet with n < 1")
	}
	utils := UUniFast(rng, n, util)
	specs := make([]TaskSpec, n)
	for i := 0; i < n; i++ {
		period := periodMenu[rng.Intn(len(periodMenu))]
		wcet := sim.Time(float64(period) * utils[i])
		if wcet < sim.Time(1) {
			wcet = 1
		}
		if wcet >= period {
			wcet = period - 1
		}
		specs[i] = TaskSpec{
			Name:   fmt.Sprintf("t%d", i),
			Period: period,
			WCET:   wcet,
			Prio:   i,
		}
	}
	return specs
}

// Utilization returns the set's total utilization.
func Utilization(specs []TaskSpec) float64 {
	u := 0.0
	for _, s := range specs {
		u += float64(s.WCET) / float64(s.Period)
	}
	return u
}

// Result aggregates one simulation of a task set.
type Result struct {
	Policy          string
	Utilization     float64
	Horizon         sim.Time
	Activations     int
	Missed          int
	ContextSwitches uint64
	Preemptions     uint64
	IdleTime        sim.Time
}

// MissRatio returns missed/activations (0 for an idle run).
func (r Result) MissRatio() float64 {
	if r.Activations == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.Activations)
}

// Run simulates the task set on the RTOS model under the given policy and
// time model until the horizon and returns deadline statistics. Tasks
// release synchronously at t=0 (the critical instant). An optional
// telemetry bus is attached to the RTOS instance.
func Run(specs []TaskSpec, policy core.Policy, tm core.TimeModel, horizon sim.Time, bus ...*telemetry.Bus) (Result, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	os := core.New(k, "PE", policy, core.WithTimeModel(tm))
	for _, b := range bus {
		telemetry.Attach(os, b)
	}
	tasks := make([]*core.Task, len(specs))
	for i, s := range specs {
		s := s
		tasks[i] = os.TaskCreate(s.Name, core.Periodic, s.Period, s.WCET, s.Prio)
		task := tasks[i]
		proc := k.Spawn(s.Name, func(p *sim.Proc) {
			os.TaskActivate(p, task)
			for {
				os.TimeWait(p, s.WCET)
				os.TaskEndCycle(p)
			}
		})
		proc.SetDaemon(true)
	}
	os.Start(nil)
	if err := k.RunUntil(horizon); err != nil {
		return Result{}, err
	}
	res := Result{
		Policy:      policy.Name(),
		Utilization: Utilization(specs),
		Horizon:     horizon,
	}
	for _, t := range tasks {
		res.Activations += t.Activations()
		res.Missed += t.MissedDeadlines()
	}
	st := os.StatsSnapshot()
	res.ContextSwitches = st.ContextSwitches
	res.Preemptions = st.Preemptions
	res.IdleTime = st.IdleTime
	return res, nil
}
