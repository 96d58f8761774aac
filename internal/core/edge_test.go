package core

import (
	"testing"

	"repro/internal/sim"
)

func TestTimeWaitZero(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
		os.TimeWait(p, 0) // legal: a zero-length annotation
		os.TimeWait(p, 10)
	}))
	os.Start(nil)
	run(t, k)
	if k.Now() != 10 {
		t.Errorf("end = %v, want 10", k.Now())
	}
	if a.CPUTime() != 10 {
		t.Errorf("cpu = %v, want 10", a.CPUTime())
	}
}

func TestKillSleepingTask(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	sleeper := os.TaskCreate("sleeper", Aperiodic, 0, 0, 5)
	killer := os.TaskCreate("killer", Aperiodic, 0, 0, 1)
	k.Spawn("sleeper", taskBody(os, sleeper, func(p *sim.Proc) {
		os.TaskSleep(p)
		t.Error("sleeper woke after kill")
	}))
	k.Spawn("killer", taskBody(os, killer, func(p *sim.Proc) {
		os.TimeWait(p, 10)
		os.TaskKill(p, sleeper)
		// Activating a killed task must be a no-op, not a resurrection.
		os.TaskActivate(p, sleeper)
		os.TimeWait(p, 10)
	}))
	os.Start(nil)
	run(t, k)
	if sleeper.State() != TaskKilled {
		t.Errorf("sleeper state = %v", sleeper.State())
	}
	if k.Now() != 20 {
		t.Errorf("end = %v, want 20", k.Now())
	}
}

func TestSetPriorityTakesEffectAtNextDecision(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{}, WithTimeModel(TimeModelSegmented))
	var order []string
	slowpoke := os.TaskCreate("slowpoke", Aperiodic, 0, 0, 9)
	runner := os.TaskCreate("runner", Aperiodic, 0, 0, 5)
	k.Spawn("runner", taskBody(os, runner, func(p *sim.Proc) {
		os.TimeWait(p, 10)
		// Boost the waiting task above ourselves; the change applies at
		// this task's next scheduling point.
		slowpoke.SetPriority(1)
		os.TimeWait(p, 10)
		order = append(order, "runner")
	}))
	k.Spawn("slowpoke", taskBody(os, slowpoke, func(p *sim.Proc) {
		os.TimeWait(p, 5)
		order = append(order, "slowpoke")
	}))
	os.Start(nil)
	run(t, k)
	if len(order) != 2 || order[0] != "slowpoke" {
		t.Errorf("order = %v, want slowpoke first after boost", order)
	}
}

func TestIdleTimeAcrossMultipleGaps(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	e := os.EventNew("tick")
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			os.EventWait(p, e) // idle 20 each round
			os.TimeWait(p, 10)
		}
	}))
	k.Spawn("isr", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.WaitFor(30)
			os.InterruptEnter(p, "t")
			os.EventNotify(p, e)
			os.InterruptReturn(p, "t")
		}
	})
	os.Start(nil)
	run(t, k)
	st := os.StatsSnapshot()
	// Rounds: idle 0-30 (wait), busy 30-40, idle 40-60, busy 60-70,
	// idle 70-90, busy 90-100 → idle 70, busy 30.
	if st.IdleTime != 70 {
		t.Errorf("idle = %v, want 70", st.IdleTime)
	}
	if st.BusyTime != 30 {
		t.Errorf("busy = %v, want 30", st.BusyTime)
	}
}

func TestRRSliceSurvivesBlocking(t *testing.T) {
	// A task that blocks voluntarily mid-slice keeps its remaining slice
	// budget; only consumption through TimeWait charges it.
	k := sim.NewKernel()
	os := New(k, "PE", RoundRobinPolicy{Quantum: 20})
	e := os.EventNew("go")
	var order []string
	a := os.TaskCreate("a", Aperiodic, 0, 0, 1)
	b := os.TaskCreate("b", Aperiodic, 0, 0, 1)
	k.Spawn("a", taskBody(os, a, func(p *sim.Proc) {
		os.TimeWait(p, 10) // half the slice
		os.EventWait(p, e) // voluntary block
		os.TimeWait(p, 9)  // 19 < 20: no rotation yet
		order = append(order, "a")
	}))
	k.Spawn("b", taskBody(os, b, func(p *sim.Proc) {
		os.EventNotify(p, e)
		os.TimeWait(p, 30)
		order = append(order, "b")
	}))
	os.Start(nil)
	run(t, k)
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestEDFTieBreakDeterministic(t *testing.T) {
	// Two periodic tasks with identical periods and deadlines: the
	// secondary priority key breaks the tie the same way every run.
	results := map[string]bool{}
	for round := 0; round < 3; round++ {
		k := sim.NewKernel()
		os := New(k, "PE", EDFPolicy{})
		var first string
		mk := func(name string, prio int) {
			task := os.TaskCreate(name, Periodic, 100, 10, prio)
			k.Spawn(name, func(p *sim.Proc) {
				os.TaskActivate(p, task)
				os.TimeWait(p, 10)
				if first == "" {
					first = name
				}
				os.TaskEndCycle(p)
				os.TaskTerminate(p)
			})
		}
		mk("x", 2)
		mk("y", 1)
		os.Start(nil)
		run(t, k)
		results[first] = true
	}
	if len(results) != 1 || !results["y"] {
		t.Errorf("tie-break nondeterministic or wrong: %v", results)
	}
}

func TestInitResets(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	os.TaskCreate("a", Aperiodic, 0, 0, 1)
	os.Init()
	if len(os.Tasks()) != 0 {
		t.Errorf("tasks after Init = %d", len(os.Tasks()))
	}
	if os.Current() != nil {
		t.Error("current not cleared")
	}
	st := os.StatsSnapshot()
	if st.Dispatches != 0 || st.BusyTime != 0 {
		t.Error("stats not cleared")
	}
}

func TestAccessors(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{}, WithTimeModel(TimeModelSegmented))
	if os.Name() != "PE" || os.Kernel() != k {
		t.Error("identity accessors wrong")
	}
	if os.Policy().Name() != "priority" {
		t.Errorf("policy = %s", os.Policy().Name())
	}
	if os.TimeModelUsed() != TimeModelSegmented {
		t.Errorf("time model = %v", os.TimeModelUsed())
	}
	task := os.TaskCreate("t", Periodic, 100, 10, 3)
	if task.ID() != 0 || task.Name() != "t" || task.Type() != Periodic ||
		task.Period() != 100 || task.WCET() != 10 || task.Priority() != 3 {
		t.Error("task accessors wrong")
	}
	if task.Proc() != nil {
		t.Error("proc bound before activation")
	}
	if task.Deadline() != sim.Forever {
		t.Errorf("initial deadline = %v", task.Deadline())
	}
	if task.State() != TaskCreated || task.cpu != -1 || task.CPUTime() != 0 ||
		task.Activations() != 0 || task.MissedDeadlines() != 0 || task.Migrations() != 0 {
		t.Error("fresh task has nonzero counters or a CPU")
	}
	if os.ncpu() != 1 {
		t.Errorf("ncpu = %d", os.ncpu())
	}
	if n := New(k, "SMP", EDFPolicy{}, WithCPUs(3)).ncpu(); n != 3 {
		t.Errorf("ncpu with WithCPUs(3) = %d", n)
	}
	if s := task.String(); s == "" {
		t.Error("empty task String()")
	}
	if !TaskReady.Alive() || TaskKilled.Alive() {
		t.Error("Alive() wrong")
	}
}
