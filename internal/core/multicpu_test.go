package core

// Tests for the global scheduler of an OS with several CPUs (WithCPUs).

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// newCPUs builds and starts an OS named "SMP" with ncpu CPUs.
func newCPUs(k *sim.Kernel, policy Policy, ncpu int, segmented bool) *OS {
	tm := TimeModelCoarse
	if segmented {
		tm = TimeModelSegmented
	}
	os := New(k, "SMP", policy, WithCPUs(ncpu), WithTimeModel(tm))
	os.Start(nil)
	return os
}

func runSMP(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// spawnAperiodic launches a one-shot compute task.
func spawnAperiodic(k *sim.Kernel, os *OS, name string, prio int, work sim.Time, done *sim.Time) {
	task := os.TaskCreate(name, Aperiodic, 0, work, prio)
	k.Spawn(name, func(p *sim.Proc) {
		os.TaskActivate(p, task)
		os.TimeWait(p, work)
		if done != nil {
			*done = p.Now()
		}
		os.TaskTerminate(p)
	})
}

// TestConservationThreeCPUs checks busy + idle + overhead = 3 × span at
// horizons that cut delays short on two CPUs while the third idles, and
// after the run. CPU 0 idles from 100 to 150, then pays a 5-tick switch
// to a task released late.
func TestConservationThreeCPUs(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	os := New(k, "SMP", PriorityPolicy{}, WithCPUs(3), WithContextSwitchCost(5))
	os.Start(nil)
	spawnAperiodic(k, os, "a", 1, 100, nil)
	spawnAperiodic(k, os, "b", 2, 250, nil)
	late := os.TaskCreate("c", Aperiodic, 0, 20, 3)
	k.Spawn("c", func(p *sim.Proc) {
		p.WaitFor(150)
		os.TaskActivate(p, late)
		os.TimeWait(p, 20)
		os.TaskTerminate(p)
	})
	for _, at := range []sim.Time{50, 120, 152, 160} {
		if err := k.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if err := os.Conservation(at); err != nil {
			t.Error(err)
		}
	}
	runSMP(t, k)
	st := os.StatsSnapshot()
	if k.Now() != 250 || st.BusyTime != 370 || st.IdleTime != 50 || st.OverheadTime != 5 {
		t.Errorf("end %v busy %v idle %v overhead %v, want 250ns, 370ns, 50ns, 5ns",
			k.Now(), st.BusyTime, st.IdleTime, st.OverheadTime)
	}
	if err := os.CheckConservation(); err != nil {
		t.Error(err)
	}
}

// TestConservationKillOnOtherCPU kills, from CPU 0 at 12, the task on
// CPU 1 while its delay or its context switch is open. The killed
// task's partial interval is credited and its CPU idles from 12 on (an
// idle interval still open at the end, which only the check counts).
func TestConservationKillOnOtherCPU(t *testing.T) {
	for _, tc := range []struct {
		name           string
		ncpu           int
		ctxCost        sim.Time
		busy, overhead sim.Time
	}{
		// v runs on CPU 1 from 0; CPU 2 idles throughout.
		{"mid-delay", 3, 0, 20 + 12, 0},
		// x runs on CPU 1 for 10; v then pays the switch from 10.
		{"mid-switch", 2, 5, 20 + 10, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Shutdown()
			os := New(k, "SMP", PriorityPolicy{}, WithCPUs(tc.ncpu), WithContextSwitchCost(tc.ctxCost))
			os.Start(nil)
			victim := os.TaskCreate("v", Aperiodic, 0, 100, 3)
			k.Spawn("v", func(p *sim.Proc) {
				os.TaskActivate(p, victim)
				os.TimeWait(p, 100)
				os.TaskTerminate(p)
			})
			if tc.ctxCost > 0 {
				spawnAperiodic(k, os, "x", 2, 10, nil)
			}
			killer := os.TaskCreate("k", Aperiodic, 0, 20, 1)
			k.Spawn("k", func(p *sim.Proc) {
				os.TaskActivate(p, killer)
				os.TimeWait(p, 12)
				os.TaskKill(p, victim)
				os.TimeWait(p, 8)
				os.TaskTerminate(p)
			})
			if err := k.RunUntil(15); err != nil {
				t.Fatal(err)
			}
			if err := os.Conservation(15); err != nil {
				t.Error(err)
			}
			runSMP(t, k)
			if victim.State() != TaskKilled {
				t.Fatalf("victim state %s, want killed", victim.State())
			}
			st := os.StatsSnapshot()
			if k.Now() != 20 || st.BusyTime != tc.busy || st.OverheadTime != tc.overhead {
				t.Errorf("end %v busy %v overhead %v, want 20ns, %v, %v",
					k.Now(), st.BusyTime, st.OverheadTime, tc.busy, tc.overhead)
			}
			if err := os.CheckConservation(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestTwoCPUsRunTwoTasksInParallel(t *testing.T) {
	k := sim.NewKernel()
	os := newCPUs(k, PriorityPolicy{}, 2, true)
	var endA, endB, endC sim.Time
	spawnAperiodic(k, os, "a", 1, 100, &endA)
	spawnAperiodic(k, os, "b", 2, 100, &endB)
	spawnAperiodic(k, os, "c", 3, 100, &endC)
	runSMP(t, k)
	if endA != 100 || endB != 100 {
		t.Errorf("a,b finished at %v,%v, want 100,100 (parallel)", endA, endB)
	}
	if endC != 200 {
		t.Errorf("c finished at %v, want 200 (third task waits for a CPU)", endC)
	}
	if bt := os.StatsSnapshot().BusyTime; bt != 300 {
		t.Errorf("busy = %v, want 300", bt)
	}
}

func TestSingleCPUEqualsUniprocessorSerialization(t *testing.T) {
	k := sim.NewKernel()
	os := newCPUs(k, PriorityPolicy{}, 1, true)
	var endB sim.Time
	spawnAperiodic(k, os, "a", 1, 70, nil)
	spawnAperiodic(k, os, "b", 2, 30, &endB)
	runSMP(t, k)
	if endB != 100 {
		t.Errorf("b finished at %v, want 100 (serialized on 1 CPU)", endB)
	}
}

func TestGlobalPreemption(t *testing.T) {
	// Both CPUs busy with low-priority work; a high-priority arrival
	// preempts the worst-ranked running task immediately (segmented).
	k := sim.NewKernel()
	os := newCPUs(k, PriorityPolicy{}, 2, true)
	var endHigh sim.Time
	spawnAperiodic(k, os, "low1", 10, 200, nil)
	spawnAperiodic(k, os, "low2", 20, 200, nil)
	high := os.TaskCreate("high", Aperiodic, 0, 50, 1)
	k.Spawn("high", func(p *sim.Proc) {
		p.WaitFor(40)
		os.TaskActivate(p, high)
		os.TimeWait(p, 50)
		endHigh = p.Now()
		os.TaskTerminate(p)
	})
	runSMP(t, k)
	if endHigh != 90 {
		t.Errorf("high finished at %v, want 90 (arrives 40, runs 50 immediately)", endHigh)
	}
	if os.StatsSnapshot().Preemptions == 0 {
		t.Error("no preemption recorded")
	}
}

func TestMigrationCounting(t *testing.T) {
	// One long task competing with staggered arrivals can resume on a
	// different CPU; the counter must track it. Construct deterministically:
	// t=0: A (prio 3) on cpu0, B (prio 4) on cpu1.
	// t=10: H1 (prio 1) preempts B (worst).  B ready.
	// t=10: cpu1 runs H1. A still on cpu0.
	// t=20: H2 (prio 2) preempts A (now worst). A ready.
	// H1 ends t=30 -> B? A? policy: A (prio 3) beats B: A resumes on cpu1
	// -> migration for A.
	k := sim.NewKernel()
	os := newCPUs(k, PriorityPolicy{}, 2, true)
	spawnAperiodic(k, os, "A", 3, 100, nil)
	spawnAperiodic(k, os, "B", 4, 100, nil)
	h1 := os.TaskCreate("H1", Aperiodic, 0, 20, 1)
	k.Spawn("H1", func(p *sim.Proc) {
		p.WaitFor(10)
		os.TaskActivate(p, h1)
		os.TimeWait(p, 20)
		os.TaskTerminate(p)
	})
	h2 := os.TaskCreate("H2", Aperiodic, 0, 100, 2)
	k.Spawn("H2", func(p *sim.Proc) {
		p.WaitFor(20)
		os.TaskActivate(p, h2)
		os.TimeWait(p, 100)
		os.TaskTerminate(p)
	})
	runSMP(t, k)
	migrations := 0
	for _, task := range os.Tasks() {
		migrations += task.Migrations()
	}
	if migrations == 0 {
		t.Error("no migrations recorded in a migration-forcing schedule")
	}
}

// periodicBody runs a periodic task for cycles iterations.
func periodicBody(os *OS, task *Task, wcet sim.Time, cycles int) sim.Func {
	return func(p *sim.Proc) {
		os.TaskActivate(p, task)
		for c := 0; c < cycles; c++ {
			os.TimeWait(p, wcet)
			os.TaskEndCycle(p)
		}
		os.TaskTerminate(p)
	}
}

// TestDhallsEffect reproduces the classic global-scheduling anomaly: on
// M=2 CPUs, two light short-period tasks plus one heavy long-period task
// (total utilization ≈ 1.15 of 2.0) miss deadlines under BOTH global RM
// and global EDF, while the obvious partitioned mapping (heavy task alone
// on one CPU) meets every deadline on the uniprocessor model.
func TestDhallsEffect(t *testing.T) {
	const cycles = 5
	runGlobal := func(policy Policy) int {
		k := sim.NewKernel()
		os := New(k, "SMP", policy, WithCPUs(2), WithTimeModel(TimeModelSegmented))
		light1 := os.TaskCreate("light1", Periodic, 100, 10, 0)
		light2 := os.TaskCreate("light2", Periodic, 100, 10, 1)
		heavy := os.TaskCreate("heavy", Periodic, 105, 100, 2)
		os.Start(nil) // under RMPolicy the lights get the higher priorities
		k.Spawn("light1", periodicBody(os, light1, 10, cycles))
		k.Spawn("light2", periodicBody(os, light2, 10, cycles))
		k.Spawn("heavy", periodicBody(os, heavy, 100, cycles))
		runSMP(t, k)
		return light1.MissedDeadlines() + light2.MissedDeadlines() + heavy.MissedDeadlines()
	}
	missRM := runGlobal(RMPolicy{})
	missEDF := runGlobal(EDFPolicy{})
	if missRM == 0 {
		t.Error("global RM met all deadlines; Dhall's effect should cause misses")
	}
	if missEDF == 0 {
		t.Error("global EDF met all deadlines; Dhall's effect should cause misses")
	}

	// Partitioned mapping on the uniprocessor model: lights on CPU0,
	// heavy alone on CPU1.
	k := sim.NewKernel()
	cpu0 := New(k, "CPU0", RMPolicy{}, WithTimeModel(TimeModelSegmented))
	cpu1 := New(k, "CPU1", RMPolicy{}, WithTimeModel(TimeModelSegmented))
	mkCore := func(os *OS, name string, period, wcet sim.Time, prio int) *Task {
		task := os.TaskCreate(name, Periodic, period, wcet, prio)
		k.Spawn(name, periodicBody(os, task, wcet, cycles))
		return task
	}
	l1 := mkCore(cpu0, "light1", 100, 10, 0)
	l2 := mkCore(cpu0, "light2", 100, 10, 1)
	hv := mkCore(cpu1, "heavy", 105, 100, 0)
	cpu0.Start(nil)
	cpu1.Start(nil)
	runSMP(t, k)
	if m := l1.MissedDeadlines() + l2.MissedDeadlines() + hv.MissedDeadlines(); m != 0 {
		t.Errorf("partitioned mapping missed %d deadlines, want 0", m)
	}
}

// TestQuickWorkConservation: for arbitrary aperiodic task sets on m CPUs,
// total busy time equals total work, busy plus idle time fills m times
// the span, the makespan is bounded between work/m and total work, and
// the running-slot invariant never breaks.
func TestQuickWorkConservation(t *testing.T) {
	f := func(workRaw []uint8, ncpuRaw uint8) bool {
		if len(workRaw) == 0 {
			return true
		}
		if len(workRaw) > 10 {
			workRaw = workRaw[:10]
		}
		ncpu := int(ncpuRaw%4) + 1
		k := sim.NewKernel()
		os := newCPUs(k, PriorityPolicy{}, ncpu, true)
		var total sim.Time
		for i, w := range workRaw {
			work := sim.Time(w) + 1
			total += work
			spawnAperiodic(k, os, fmt.Sprintf("t%d", i), i, work, nil)
		}
		if err := k.Run(); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		if os.StatsSnapshot().BusyTime != total {
			return false
		}
		if err := os.CheckConservation(); err != nil {
			t.Log(err)
			return false
		}
		end := k.Now()
		lower := (total + sim.Time(ncpu) - 1) / sim.Time(ncpu)
		return end >= lower && end <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickNeverMoreRunningThanCPUs samples the running count at every
// scheduling boundary via a monitor task.
func TestQuickNeverMoreRunningThanCPUs(t *testing.T) {
	f := func(seed uint32, ncpuRaw uint8) bool {
		ncpu := int(ncpuRaw%3) + 1
		k := sim.NewKernel()
		os := newCPUs(k, PriorityPolicy{}, ncpu, true)
		bad := false
		for i := 0; i < 6; i++ {
			x := seed + uint32(i)*2654435761
			task := os.TaskCreate(fmt.Sprintf("t%d", i), Aperiodic, 0, 0, int(x%4))
			k.Spawn(task.Name(), func(p *sim.Proc) {
				os.TaskActivate(p, task)
				y := x
				for j := 0; j < 4; j++ {
					y = y*1664525 + 1013904223
					os.TimeWait(p, sim.Time(y%30+1))
					if os.running() > ncpu {
						bad = true
					}
				}
				os.TaskTerminate(p)
			})
		}
		// The monitor is a daemon with an endless timer loop, so the
		// simulation must be bounded by a horizon (daemon processes don't
		// deadlock the kernel, but their timers keep time advancing).
		mon := k.Spawn("monitor", func(p *sim.Proc) {
			for {
				p.WaitFor(7)
				if os.running() > ncpu {
					bad = true
				}
			}
		})
		mon.SetDaemon(true)
		if err := k.RunUntil(10000); err != nil {
			return false
		}
		return !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidation(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("New with 0 CPUs did not panic")
		}
	}()
	New(k, "bad", PriorityPolicy{}, WithCPUs(0))
}

// TestCoarseModePreemptsAtSchedulingPoints: under the coarse time model
// the whole delay annotation completes before a higher-priority arrival
// takes the CPU (the paper's t4 -> t4' behavior, here on M CPUs).
func TestCoarseModePreemptsAtSchedulingPoints(t *testing.T) {
	k := sim.NewKernel()
	os := newCPUs(k, PriorityPolicy{}, 2, false) // coarse
	var endHigh sim.Time
	// Fill both CPUs with coarse 200-unit chunks.
	spawnAperiodic(k, os, "low1", 10, 200, nil)
	spawnAperiodic(k, os, "low2", 20, 200, nil)
	high := os.TaskCreate("high", Aperiodic, 0, 50, 1)
	k.Spawn("high", func(p *sim.Proc) {
		p.WaitFor(40)
		os.TaskActivate(p, high)
		os.TimeWait(p, 50)
		endHigh = p.Now()
		os.TaskTerminate(p)
	})
	runSMP(t, k)
	// Coarse: high waits until a low task's 200-chunk ends, then runs 50.
	if endHigh != 250 {
		t.Errorf("high finished at %v, want 250 (chunk-delayed preemption)", endHigh)
	}
}

// TestCoarsePeriodicSet: periodic execution works in coarse mode too.
func TestCoarsePeriodicSet(t *testing.T) {
	k := sim.NewKernel()
	os := newCPUs(k, PriorityPolicy{}, 2, false)
	a := os.TaskCreate("a", Periodic, 100, 30, 0)
	b := os.TaskCreate("b", Periodic, 100, 30, 1)
	k.Spawn("a", periodicBody(os, a, 30, 4))
	k.Spawn("b", periodicBody(os, b, 30, 4))
	runSMP(t, k)
	if a.MissedDeadlines() != 0 || b.MissedDeadlines() != 0 {
		t.Errorf("misses a=%d b=%d on a trivially feasible 2-CPU set",
			a.MissedDeadlines(), b.MissedDeadlines())
	}
	if a.Activations() != 4 || b.Activations() != 4 {
		t.Errorf("activations a=%d b=%d, want 4 each", a.Activations(), b.Activations())
	}
}

// TestSMPWatchdogStarvation: on a single coarse-model CPU a
// higher-priority hog that never reaches a scheduling point starves the
// ready queue; the watchdog diagnoses it.
func TestSMPWatchdogStarvation(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	os := newCPUs(k, PriorityPolicy{}, 1, false)
	hog := os.TaskCreate("hog", Aperiodic, 0, 0, 1)
	k.Spawn("hog", func(p *sim.Proc) {
		os.TaskActivate(p, hog)
		for {
			os.TimeWait(p, 10)
		}
	})
	victim := os.TaskCreate("victim", Aperiodic, 0, 0, 2)
	k.Spawn("victim", func(p *sim.Proc) {
		os.TaskActivate(p, victim)
		os.TimeWait(p, 5)
		os.TaskTerminate(p)
	})
	os.EnableWatchdog(100)

	var d *DiagnosisError
	if err := k.RunUntil(10_000); !errors.As(err, &d) {
		t.Fatalf("RunUntil = %v, want *DiagnosisError", err)
	}
	if d.Kind != DiagStarvation || d.PE != "SMP" {
		t.Fatalf("diagnosis = %v, want SMP starvation", d)
	}
	if len(d.Blocked) != 1 || d.Blocked[0].Task != "victim" {
		t.Fatalf("Blocked = %v, want victim", d.Blocked)
	}
	if os.Diagnosis() != d {
		t.Errorf("Diagnosis() did not record the reported error")
	}
}

// TestSMPWatchdogCleanRun: the watchdog stays silent on a healthy
// multiprocessor workload and the simulation finishes normally.
func TestSMPWatchdogCleanRun(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	os := newCPUs(k, EDFPolicy{}, 2, true)
	for i, name := range []string{"a", "b", "c"} {
		spawnAperiodic(k, os, name, i+1, 100, nil)
	}
	// The window must exceed the longest legitimate wait for a CPU slot
	// (task c waits 100 while a and b occupy both CPUs).
	os.EnableWatchdog(150)
	if err := k.RunUntil(10_000); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if d := os.Diagnosis(); d != nil {
		t.Errorf("clean run diagnosed: %v", d)
	}
}
