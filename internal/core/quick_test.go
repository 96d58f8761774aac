package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestQuickSerializationInvariant: for arbitrary aperiodic task sets the
// RTOS model serializes execution — total busy time equals the sum of all
// modeled delays, every task's CPU time equals its own delay sum, and the
// simulation ends no earlier than the total busy time (no idle can occur
// with all tasks ready at t=0, so it ends exactly at the total).
func TestQuickSerializationInvariant(t *testing.T) {
	f := func(delays [][]uint8) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 8 {
			delays = delays[:8]
		}
		k := sim.NewKernel()
		os := New(k, "PE", PriorityPolicy{})
		var total sim.Time
		sums := make([]sim.Time, len(delays))
		tasks := make([]*Task, len(delays))
		for i, list := range delays {
			i, list := i, list
			for _, d := range list {
				sums[i] += sim.Time(d)
				total += sim.Time(d)
			}
			tasks[i] = os.TaskCreate(fmt.Sprintf("t%d", i), Aperiodic, 0, 0, i)
			k.Spawn(fmt.Sprintf("t%d", i), taskBody(os, tasks[i], func(p *sim.Proc) {
				for _, d := range list {
					os.TimeWait(p, sim.Time(d))
				}
			}))
		}
		os.Start(nil)
		if err := k.Run(); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		if os.StatsSnapshot().BusyTime != total {
			return false
		}
		for i, task := range tasks {
			if task.CPUTime() != sums[i] {
				return false
			}
		}
		return k.Now() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickAtMostOneRunning: across arbitrary schedules, at every observed
// state transition at most one task is in the running state, and at every
// dispatch the chosen task is optimal under the policy (no strictly
// preferred task remains in the ready queue).
func TestQuickAtMostOneRunning(t *testing.T) {
	f := func(seed uint32, nTasks uint8) bool {
		n := int(nTasks%6) + 2
		k := sim.NewKernel()
		os := New(k, "PE", PriorityPolicy{})
		violated := false
		os.Observe(&invariantObserver{os: os, fail: &violated})
		for i := 0; i < n; i++ {
			i := i
			x := seed + uint32(i)*2654435761
			task := os.TaskCreate(fmt.Sprintf("t%d", i), Aperiodic, 0, 0, int(x%5))
			k.Spawn(fmt.Sprintf("t%d", i), taskBody(os, task, func(p *sim.Proc) {
				y := x
				for j := 0; j < 6; j++ {
					y = y*1664525 + 1013904223
					os.TimeWait(p, sim.Time(y%40+1))
				}
			}))
		}
		os.Start(nil)
		if err := k.Run(); err != nil {
			return false
		}
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

type invariantObserver struct {
	os   *OS
	fail *bool
}

func (o *invariantObserver) OnTaskState(at sim.Time, task *Task, old, new TaskState) {
	running := 0
	for _, t := range o.os.tasks {
		if t.state == TaskRunning {
			running++
		}
	}
	if running > 1 {
		*o.fail = true
	}
}

func (o *invariantObserver) OnDispatch(at sim.Time, cpu int, prev, next *Task) {
	if next == nil {
		return
	}
	o.os.rq.Do(func(r *Task) {
		if o.os.policy.Less(r, next) {
			*o.fail = true // a strictly preferred task was left waiting
		}
	})
}

func (o *invariantObserver) OnIRQ(at sim.Time, name string, enter bool) {}

// TestQuickEDFMeetsFeasibleDeadlines: random periodic task sets with total
// utilization ≤ 0.8 run under EDF without a single deadline miss (EDF is
// optimal for U ≤ 1; the margin keeps integer rounding harmless). The
// segmented time model is required: under the paper's coarse model a
// whole-WCET delay annotation makes execution effectively non-preemptive,
// which voids EDF's optimality — that gap is exactly the granularity
// ablation of DESIGN.md experiment F8-PREC.
func TestQuickEDFMeetsFeasibleDeadlines(t *testing.T) {
	testPolicyMeetsDeadlines(t, EDFPolicy{}, 80)
}

// TestQuickRMBelowBoundMeetsDeadlines: random periodic task sets with
// utilization below ~0.69 (ln 2, the Liu-Layland limit for large n) run
// under RM without deadline misses (segmented model, see above).
func TestQuickRMBelowBoundMeetsDeadlines(t *testing.T) {
	testPolicyMeetsDeadlines(t, RMPolicy{}, 60)
}

func testPolicyMeetsDeadlines(t *testing.T, pol Policy, utilPercent int) {
	t.Helper()
	f := func(seed uint32, nTasks uint8) bool {
		n := int(nTasks%4) + 2
		periods := []sim.Time{100, 200, 400, 800, 1000}
		k := sim.NewKernel()
		os := New(k, "PE", pol, WithTimeModel(TimeModelSegmented))
		var tasks []*Task
		x := seed
		for i := 0; i < n; i++ {
			x = x*1664525 + 1013904223
			period := periods[x%uint32(len(periods))]
			wcet := period * sim.Time(utilPercent) / sim.Time(100*n)
			if wcet < 1 {
				wcet = 1
			}
			task := os.TaskCreate(fmt.Sprintf("t%d", i), Periodic, period, wcet, i)
			tasks = append(tasks, task)
			k.Spawn(task.Name(), func(p *sim.Proc) {
				os.TaskActivate(p, task)
				for c := 0; c < 8; c++ {
					os.TimeWait(p, task.WCET())
					os.TaskEndCycle(p)
				}
				os.TaskTerminate(p)
			})
		}
		os.Start(nil)
		if err := k.Run(); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		for _, task := range tasks {
			if task.MissedDeadlines() > 0 {
				t.Logf("seed=%d n=%d: task %s missed %d deadlines (U=%.3f)",
					seed, n, task.Name(), task.MissedDeadlines(), Utilization(tasks))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterministicSchedules: identical task sets simulate to
// identical dispatch logs.
func TestQuickDeterministicSchedules(t *testing.T) {
	f := func(seed uint32) bool {
		runOnce := func() string {
			k := sim.NewKernel()
			os := New(k, "PE", PriorityPolicy{})
			log := &observerLog{}
			os.Observe(log)
			for i := 0; i < 4; i++ {
				i := i
				x := seed + uint32(i)*97
				task := os.TaskCreate(fmt.Sprintf("t%d", i), Aperiodic, 0, 0, int(x%3))
				k.Spawn(task.Name(), taskBody(os, task, func(p *sim.Proc) {
					y := x
					for j := 0; j < 4; j++ {
						y = y*1664525 + 1013904223
						os.TimeWait(p, sim.Time(y%30+1))
					}
				}))
			}
			os.Start(nil)
			if err := k.Run(); err != nil {
				return "err"
			}
			return fmt.Sprint(log.dispatches)
		}
		return runOnce() == runOnce()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
