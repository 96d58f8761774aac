package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// taskBody wraps a task body with the activate/terminate protocol of the
// paper's Figure 5.
func taskBody(os *OS, t *Task, body func(p *sim.Proc)) sim.Func {
	return func(p *sim.Proc) {
		os.TaskActivate(p, t)
		body(p)
		os.TaskTerminate(p)
	}
}

func run(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTwoTasksSerialize(t *testing.T) {
	// The defining property of the RTOS model (paper Section 4.3): delays
	// of concurrent tasks are accumulative. Two tasks each modeling 100
	// time units of execution finish at 200, not 100.
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	var endA, endB sim.Time
	a := os.TaskCreate("A", Aperiodic, 0, 100, 1)
	b := os.TaskCreate("B", Aperiodic, 0, 100, 2)
	k.Spawn("A", taskBody(os, a, func(p *sim.Proc) {
		os.TimeWait(p, 100)
		endA = p.Now()
	}))
	k.Spawn("B", taskBody(os, b, func(p *sim.Proc) {
		os.TimeWait(p, 100)
		endB = p.Now()
	}))
	os.Start(nil)
	run(t, k)
	if endA != 100 {
		t.Errorf("high-priority task A finished at %v, want 100", endA)
	}
	if endB != 200 {
		t.Errorf("low-priority task B finished at %v, want 200 (serialized)", endB)
	}
}

func TestPriorityOrder(t *testing.T) {
	// Three tasks activated together run in priority order.
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	var order []string
	mk := func(name string, prio int) {
		task := os.TaskCreate(name, Aperiodic, 0, 10, prio)
		k.Spawn(name, taskBody(os, task, func(p *sim.Proc) {
			os.TimeWait(p, 10)
			order = append(order, name)
		}))
	}
	mk("low", 30)
	mk("high", 10)
	mk("mid", 20)
	os.Start(nil)
	run(t, k)
	if got := strings.Join(order, ","); got != "high,mid,low" {
		t.Errorf("completion order = %s, want high,mid,low", got)
	}
}

func TestEventWaitNotify(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	e := os.EventNew("data")
	var consumedAt sim.Time
	cons := os.TaskCreate("consumer", Aperiodic, 0, 0, 1)
	prod := os.TaskCreate("producer", Aperiodic, 0, 0, 2)
	k.Spawn("consumer", taskBody(os, cons, func(p *sim.Proc) {
		os.EventWait(p, e)
		consumedAt = p.Now()
	}))
	k.Spawn("producer", taskBody(os, prod, func(p *sim.Proc) {
		os.TimeWait(p, 55)
		os.EventNotify(p, e)
		os.TimeWait(p, 5)
	}))
	os.Start(nil)
	run(t, k)
	if consumedAt != 55 {
		t.Errorf("consumer woke at %v, want 55 (immediate preemption of producer at notify)", consumedAt)
	}
}

func TestEventNotifyNoWaiterIsLost(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	e := os.EventNew("e")
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
		os.EventNotify(p, e) // lost: nobody waiting
		os.TimeWait(p, 10)
	}))
	os.Start(nil)
	run(t, k)
	if n := os.StatsSnapshot().Dispatches; n == 0 {
		t.Error("no dispatches recorded")
	}
}

// TestCoarsePreemptionDelayedToEndOfTimeStep reproduces the essence of the
// paper's Figure 8(b): an interrupt at t4 readies the high-priority task,
// but the actual switch is delayed until the end of the running task's
// current discrete time step (t4').
func TestCoarsePreemptionDelayedToEndOfTimeStep(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	e := os.EventNew("irq-sem")
	var highResumed, lowSegEnd sim.Time
	high := os.TaskCreate("high", Aperiodic, 0, 0, 1)
	low := os.TaskCreate("low", Aperiodic, 0, 0, 2)
	k.Spawn("high", taskBody(os, high, func(p *sim.Proc) {
		os.EventWait(p, e)
		highResumed = p.Now()
		os.TimeWait(p, 10)
	}))
	k.Spawn("low", taskBody(os, low, func(p *sim.Proc) {
		os.TimeWait(p, 100) // the discrete time step d6
		// TimeWait is the scheduling point: the step ended at 100, the
		// preemption happened there, and low regains the CPU only after
		// high's 10-unit segment.
		lowSegEnd = p.Now()
		os.TimeWait(p, 50)
	}))
	// Interrupt at t=40: handler releases the semaphore the high task
	// blocks on.
	k.Spawn("isr", func(p *sim.Proc) {
		p.WaitFor(40)
		os.InterruptEnter(p, "irq0")
		os.EventNotify(p, e)
		os.InterruptReturn(p, "irq0")
	})
	os.Start(nil)
	run(t, k)
	if highResumed != 100 {
		t.Errorf("high resumed at %v, want 100 (switch delayed to end of time step)", highResumed)
	}
	if lowSegEnd != 110 {
		t.Errorf("low regained CPU at %v, want 110 (100 + high's 10)", lowSegEnd)
	}
	if got := os.StatsSnapshot().Preemptions; got != 1 {
		t.Errorf("preemptions = %d, want 1", got)
	}
}

// TestSegmentedPreemptionIsImmediate checks the extension time model: the
// same scenario preempts the low task mid-delay, and the low task still
// consumes its full modeled execution time afterwards.
func TestSegmentedPreemptionIsImmediate(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{}, WithTimeModel(TimeModelSegmented))
	e := os.EventNew("irq-sem")
	var highResumed, lowEnd sim.Time
	high := os.TaskCreate("high", Aperiodic, 0, 0, 1)
	low := os.TaskCreate("low", Aperiodic, 0, 0, 2)
	k.Spawn("high", taskBody(os, high, func(p *sim.Proc) {
		os.EventWait(p, e)
		highResumed = p.Now()
		os.TimeWait(p, 10)
	}))
	k.Spawn("low", taskBody(os, low, func(p *sim.Proc) {
		os.TimeWait(p, 100)
		lowEnd = p.Now()
	}))
	k.Spawn("isr", func(p *sim.Proc) {
		p.WaitFor(40)
		os.InterruptEnter(p, "irq0")
		os.EventNotify(p, e)
		os.InterruptReturn(p, "irq0")
	})
	os.Start(nil)
	run(t, k)
	if highResumed != 40 {
		t.Errorf("high resumed at %v, want 40 (immediate preemption)", highResumed)
	}
	// low: 40 executed before preemption + 10 of high + 60 remaining = 110.
	if lowEnd != 110 {
		t.Errorf("low finished at %v, want 110", lowEnd)
	}
	if low.CPUTime() != 100 {
		t.Errorf("low consumed %v CPU, want 100", low.CPUTime())
	}
}

func TestFCFSNonPreemptive(t *testing.T) {
	// Under FCFS a later-arriving "urgent" task must wait for the running
	// task to block, regardless of priority.
	k := sim.NewKernel()
	os := New(k, "PE", FCFSPolicy{})
	var order []string
	first := os.TaskCreate("first", Aperiodic, 0, 0, 99)
	urgent := os.TaskCreate("urgent", Aperiodic, 0, 0, 0)
	k.Spawn("first", taskBody(os, first, func(p *sim.Proc) {
		os.TimeWait(p, 10)
		os.TimeWait(p, 10)
		order = append(order, "first")
	}))
	k.Spawn("urgent", func(p *sim.Proc) {
		p.WaitFor(5) // arrives while "first" is mid-execution
		os.TaskActivate(p, urgent)
		os.TimeWait(p, 1)
		order = append(order, "urgent")
		os.TaskTerminate(p)
	})
	os.Start(nil)
	run(t, k)
	if got := strings.Join(order, ","); got != "first,urgent" {
		t.Errorf("order = %s, want first,urgent (no preemption under FCFS)", got)
	}
}

func TestRoundRobinRotation(t *testing.T) {
	// Two equal-priority tasks with quantum 10 alternate in 10-unit
	// segments.
	k := sim.NewKernel()
	os := New(k, "PE", RoundRobinPolicy{Quantum: 10})
	var segs []string
	mk := func(name string) {
		task := os.TaskCreate(name, Aperiodic, 0, 0, 5)
		k.Spawn(name, taskBody(os, task, func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				os.TimeWait(p, 10)
				segs = append(segs, fmt.Sprintf("%s@%d", name, p.Now()))
			}
		}))
	}
	mk("a")
	mk("b")
	os.Start(nil)
	run(t, k)
	// Execution alternates in 10-unit segments (a:0-10, b:10-20, a:20-30,
	// ...). Each log entry is written at the end of the task's own segment:
	// slice expiry rotates the queue at the task's next scheduling point
	// (the following TimeWait), not with a spurious preemption right after
	// the delay that exhausted the quantum.
	want := "a@10,b@20,a@30,b@40,a@50,b@60"
	if got := strings.Join(segs, ","); got != want {
		t.Errorf("segments = %s, want %s", got, want)
	}
}

func TestRoundRobinSoloTaskKeepsCPU(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", RoundRobinPolicy{Quantum: 5})
	var end sim.Time
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			os.TimeWait(p, 5)
		}
		end = p.Now()
	}))
	os.Start(nil)
	run(t, k)
	if end != 50 {
		t.Errorf("solo RR task finished at %v, want 50", end)
	}
	if cs := os.StatsSnapshot().ContextSwitches; cs != 0 {
		t.Errorf("context switches = %d, want 0 for solo task", cs)
	}
}

func TestEDFOrdersByDeadline(t *testing.T) {
	// Two periodic tasks: EDF runs the one with the earlier absolute
	// deadline first even if its base priority is worse.
	k := sim.NewKernel()
	os := New(k, "PE", EDFPolicy{})
	var first string
	tight := os.TaskCreate("tight", Periodic, 50, 10, 9)  // deadline 50
	loose := os.TaskCreate("loose", Periodic, 200, 10, 1) // deadline 200
	body := func(task *Task, name string) sim.Func {
		return func(p *sim.Proc) {
			os.TaskActivate(p, task)
			for i := 0; i < 2; i++ {
				os.TimeWait(p, 10)
				if first == "" {
					first = name
				}
				os.TaskEndCycle(p)
			}
			os.TaskTerminate(p)
		}
	}
	k.Spawn("loose", body(loose, "loose"))
	k.Spawn("tight", body(tight, "tight"))
	os.Start(nil)
	run(t, k)
	if first != "tight" {
		t.Errorf("first completion = %s, want tight (earlier deadline)", first)
	}
	if tight.MissedDeadlines() != 0 || loose.MissedDeadlines() != 0 {
		t.Errorf("missed deadlines: tight=%d loose=%d, want 0,0",
			tight.MissedDeadlines(), loose.MissedDeadlines())
	}
}

func TestRMAssignsPrioritiesByPeriod(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", RMPolicy{})
	slow := os.TaskCreate("slow", Periodic, 1000, 1, 0)
	fast := os.TaskCreate("fast", Periodic, 10, 1, 50)
	mid := os.TaskCreate("mid", Periodic, 100, 1, 25)
	ap := os.TaskCreate("ap", Aperiodic, 0, 1, 3)
	os.Start(nil)
	if !(fast.Priority() < mid.Priority() && mid.Priority() < slow.Priority()) {
		t.Errorf("RM priorities: fast=%d mid=%d slow=%d, want ascending by period",
			fast.Priority(), mid.Priority(), slow.Priority())
	}
	if ap.Priority() <= slow.Priority() {
		t.Errorf("aperiodic priority %d not below all periodic (%d)", ap.Priority(), slow.Priority())
	}
}

func TestPeriodicReleasesAndDeadlineMiss(t *testing.T) {
	// One periodic task with period 100, execution 30: releases at 0, 100,
	// 200... A competing heavy task with higher priority makes it miss.
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	var starts []sim.Time
	per := os.TaskCreate("per", Periodic, 100, 30, 5)
	k.Spawn("per", func(p *sim.Proc) {
		os.TaskActivate(p, per)
		for i := 0; i < 3; i++ {
			starts = append(starts, p.Now())
			os.TimeWait(p, 30)
			os.TaskEndCycle(p)
		}
		os.TaskTerminate(p)
	})
	os.Start(nil)
	run(t, k)
	wantStarts := []sim.Time{0, 100, 200}
	for i, w := range wantStarts {
		if starts[i] != w {
			t.Errorf("release %d at %v, want %v", i, starts[i], w)
		}
	}
	if per.MissedDeadlines() != 0 {
		t.Errorf("missed = %d, want 0", per.MissedDeadlines())
	}
	if per.Activations() != 3 {
		t.Errorf("activations = %d, want 3", per.Activations())
	}
}

func TestPeriodicOverrunCountsMisses(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	per := os.TaskCreate("per", Periodic, 10, 25, 5)
	k.Spawn("per", func(p *sim.Proc) {
		os.TaskActivate(p, per)
		os.TimeWait(p, 25) // runs way past its 10-unit period
		os.TaskEndCycle(p)
		os.TaskTerminate(p)
	})
	os.Start(nil)
	run(t, k)
	if per.MissedDeadlines() == 0 {
		t.Error("overrunning periodic task recorded no deadline miss")
	}
}

func TestTaskSleepActivate(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	var wokeAt sim.Time
	sleeper := os.TaskCreate("sleeper", Aperiodic, 0, 0, 1)
	waker := os.TaskCreate("waker", Aperiodic, 0, 0, 2)
	k.Spawn("sleeper", taskBody(os, sleeper, func(p *sim.Proc) {
		os.TaskSleep(p)
		wokeAt = p.Now()
	}))
	k.Spawn("waker", taskBody(os, waker, func(p *sim.Proc) {
		os.TimeWait(p, 70)
		os.TaskActivate(p, sleeper)
		os.TimeWait(p, 10)
	}))
	os.Start(nil)
	run(t, k)
	if wokeAt != 70 {
		t.Errorf("sleeper woke at %v, want 70", wokeAt)
	}
	if sleeper.State() != TaskTerminated {
		t.Errorf("sleeper state = %v, want terminated", sleeper.State())
	}
}

func TestTaskKill(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	var victimFinished bool
	victim := os.TaskCreate("victim", Aperiodic, 0, 0, 5)
	killer := os.TaskCreate("killer", Aperiodic, 0, 0, 1)
	// Killer spawns first so it holds the CPU; the victim stays parked in
	// the ready queue and is killed there without ever running.
	k.Spawn("killer", taskBody(os, killer, func(p *sim.Proc) {
		os.TimeWait(p, 10)
		os.TaskKill(p, victim)
		os.TimeWait(p, 10)
	}))
	k.Spawn("victim", taskBody(os, victim, func(p *sim.Proc) {
		os.TimeWait(p, 1000)
		victimFinished = true
	}))
	os.Start(nil)
	run(t, k)
	if victimFinished {
		t.Error("killed task ran to completion")
	}
	if victim.State() != TaskKilled {
		t.Errorf("victim state = %v, want killed", victim.State())
	}
	if k.Now() != 20 {
		t.Errorf("simulation ended at %v, want 20", k.Now())
	}
}

func TestParStartParEnd(t *testing.T) {
	// The paper's Figure 6 pattern: a parent task forks two child tasks
	// via the SLDL par statement bracketed by ParStart/ParEnd.
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	var order []string
	parent := os.TaskCreate("parent", Aperiodic, 0, 0, 0)
	c1 := os.TaskCreate("c1", Aperiodic, 0, 0, 2)
	c2 := os.TaskCreate("c2", Aperiodic, 0, 0, 1)
	k.Spawn("parent", taskBody(os, parent, func(p *sim.Proc) {
		os.TimeWait(p, 5)
		order = append(order, "B1")
		pt := os.ParStart(p)
		p.Par(
			taskBody(os, c1, func(cp *sim.Proc) {
				os.TimeWait(cp, 10)
				order = append(order, "c1")
			}),
			taskBody(os, c2, func(cp *sim.Proc) {
				os.TimeWait(cp, 10)
				order = append(order, "c2")
			}),
		)
		os.ParEnd(p, pt)
		order = append(order, fmt.Sprintf("join@%d", p.Now()))
	}))
	os.Start(nil)
	run(t, k)
	// c2 has higher priority than c1, tasks serialize: c2 at 15, c1 at 25.
	want := "B1,c2,c1,join@25"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

// tsem is a minimal counting semaphore over the memoryless OS events,
// mirroring how the paper layers stateful channels on SLDL events
// (Figure 7). Raw OS events lose a notify issued while the partner is
// preempted, so handover protocols need this predicate-loop pattern.
type tsem struct {
	os *OS
	e  *OSEvent
	n  int
}

func newTsem(os *OS, name string) *tsem { return &tsem{os: os, e: os.EventNew(name)} }

func (s *tsem) release(p *sim.Proc) {
	s.n++
	s.os.EventNotify(p, s.e)
}

func (s *tsem) acquire(p *sim.Proc) {
	for s.n == 0 {
		s.os.EventWait(p, s.e)
	}
	s.n--
}

func TestContextSwitchCount(t *testing.T) {
	// Two tasks ping-ponging via semaphores produce roughly one context
	// switch per handover.
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	ping := newTsem(os, "ping")
	pong := newTsem(os, "pong")
	const rounds = 10
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	b := os.TaskCreate("b", Aperiodic, 0, 0, 2)
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			os.TimeWait(p, 1)
			ping.release(p)
			pong.acquire(p)
		}
	}))
	k.Spawn("b", taskBody(os, b, func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.acquire(p)
			os.TimeWait(p, 1)
			pong.release(p)
		}
	}))
	os.Start(nil)
	run(t, k)
	cs := os.StatsSnapshot().ContextSwitches
	if cs < 2*rounds-1 || cs > 2*rounds+2 {
		t.Errorf("context switches = %d, want ≈%d", cs, 2*rounds)
	}
}

func TestContextSwitchCostExtendsRuntime(t *testing.T) {
	elapsed := func(cost sim.Time) sim.Time {
		k := sim.NewKernel()
		os := New(k, "PE", PriorityPolicy{}, WithContextSwitchCost(cost))
		ping := newTsem(os, "ping")
		pong := newTsem(os, "pong")
		a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
		b := os.TaskCreate("b", Aperiodic, 0, 0, 2)
		k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				os.TimeWait(p, 1)
				ping.release(p)
				pong.acquire(p)
			}
		}))
		k.Spawn("b", taskBody(os, b, func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				ping.acquire(p)
				os.TimeWait(p, 1)
				pong.release(p)
			}
		}))
		os.Start(nil)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	free := elapsed(0)
	costed := elapsed(3)
	if costed <= free {
		t.Errorf("runtime with switch cost (%v) not longer than without (%v)", costed, free)
	}
}

func TestISRDispatchesWhenIdle(t *testing.T) {
	// CPU idle, ISR releases a task: it must be dispatched immediately.
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	e := os.EventNew("sem")
	var ranAt sim.Time
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
		os.EventWait(p, e) // CPU goes idle
		ranAt = p.Now()
		os.TimeWait(p, 5)
	}))
	k.Spawn("isr", func(p *sim.Proc) {
		p.WaitFor(30)
		os.InterruptEnter(p, "irq")
		os.EventNotify(p, e)
		os.InterruptReturn(p, "irq")
	})
	os.Start(nil)
	run(t, k)
	if ranAt != 30 {
		t.Errorf("task resumed at %v, want 30", ranAt)
	}
	st := os.StatsSnapshot()
	if st.IRQs != 1 {
		t.Errorf("IRQs = %d, want 1", st.IRQs)
	}
	if st.IdleTime != 30 {
		t.Errorf("idle time = %v, want 30", st.IdleTime)
	}
}

func TestMustCurrentPanics(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	_ = a
	defer func() {
		if recover() == nil {
			t.Error("TimeWait from non-task process did not panic")
		}
	}()
	k.Spawn("rogue", func(p *sim.Proc) {
		os.TimeWait(p, 5) // not a task: must panic
	})
	os.Start(nil)
	_ = k.Run()
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"priority", "fcfs", "edf", "rm"} {
		pol, err := PolicyByName(name, 0)
		if err != nil || pol == nil {
			t.Errorf("PolicyByName(%q) = %v, %v", name, pol, err)
		}
	}
	if _, err := PolicyByName("rr", 10); err != nil {
		t.Errorf("rr with quantum: %v", err)
	}
	if _, err := PolicyByName("rr", 0); err == nil {
		t.Error("rr without quantum must fail")
	}
	if _, err := PolicyByName("lottery", 0); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestEventDelPanicsOnWait(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	e := os.EventNew("e")
	os.EventDel(e)
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("EventWait on deleted event did not panic")
		}
	}()
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
		os.EventWait(p, e)
	}))
	os.Start(nil)
	_ = k.Run()
}

func TestStateStrings(t *testing.T) {
	states := []TaskState{TaskCreated, TaskReady, TaskRunning, TaskWaitingEvent,
		TaskWaitingTime, TaskWaitingChildren, TaskWaitingPeriod, TaskWaitingMutex,
		TaskSuspended, TaskTerminated, TaskKilled}
	seen := map[string]bool{}
	for _, s := range states {
		str := s.String()
		if str == "" || seen[str] {
			t.Errorf("state %d has empty or duplicate string %q", int(s), str)
		}
		seen[str] = true
	}
	if Aperiodic.String() != "aperiodic" || Periodic.String() != "periodic" {
		t.Error("TaskType strings wrong")
	}
	if TimeModelCoarse.String() != "coarse" || TimeModelSegmented.String() != "segmented" {
		t.Error("TimeModel strings wrong")
	}
}

// observerLog records observer callbacks for verification.
type observerLog struct {
	states     []string
	dispatches []string
	irqs       []string
}

func (o *observerLog) OnTaskState(at sim.Time, t *Task, old, new TaskState) {
	o.states = append(o.states, fmt.Sprintf("%v:%s:%s->%s", at, t.Name(), old, new))
}
func (o *observerLog) OnDispatch(at sim.Time, cpu int, prev, next *Task) {
	name := func(t *Task) string {
		if t == nil {
			return "-"
		}
		return t.Name()
	}
	o.dispatches = append(o.dispatches, fmt.Sprintf("%v:%s->%s", at, name(prev), name(next)))
}
func (o *observerLog) OnIRQ(at sim.Time, name string, enter bool) {
	o.irqs = append(o.irqs, fmt.Sprintf("%v:%s:%v", at, name, enter))
}

func TestObserverReceivesEvents(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	log := &observerLog{}
	os.Observe(log)
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
		os.TimeWait(p, 10)
	}))
	k.Spawn("isr", func(p *sim.Proc) {
		p.WaitFor(5)
		os.InterruptEnter(p, "x")
		os.InterruptReturn(p, "x")
	})
	os.Start(nil)
	run(t, k)
	if len(log.states) == 0 || len(log.dispatches) == 0 {
		t.Errorf("observer missed events: states=%d dispatches=%d", len(log.states), len(log.dispatches))
	}
	if len(log.irqs) != 2 {
		t.Errorf("irq callbacks = %d, want 2", len(log.irqs))
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	b := os.TaskCreate("b", Aperiodic, 0, 0, 2)
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) { os.TimeWait(p, 30) }))
	k.Spawn("b", taskBody(os, b, func(p *sim.Proc) { os.TimeWait(p, 20) }))
	os.Start(nil)
	run(t, k)
	if bt := os.StatsSnapshot().BusyTime; bt != 50 {
		t.Errorf("busy time = %v, want 50", bt)
	}
	if a.CPUTime() != 30 || b.CPUTime() != 20 {
		t.Errorf("cpu times a=%v b=%v, want 30/20", a.CPUTime(), b.CPUTime())
	}
}
