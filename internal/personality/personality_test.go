package personality

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestRegistry(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	os := core.New(k, "PE", core.PriorityPolicy{})
	os.Init()
	for _, kind := range Kinds() {
		rt, err := New(kind, os)
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		if rt.Kind() != kind {
			t.Errorf("New(%q).Kind() = %q", kind, rt.Kind())
		}
		if rt.OS() != os {
			t.Errorf("New(%q).OS() is not the given instance", kind)
		}
	}
	if rt, err := New("", os); err != nil || rt.Kind() != Generic {
		t.Errorf("New(\"\") = %v/%v, want the generic personality", rt, err)
	}
	if _, err := New("vxworks", os); err == nil {
		t.Error("New(unknown) succeeded, want error")
	}
}

// outcome is the personality-neutral observable result of one task.
type outcome struct {
	cpu         sim.Time
	activations int
	terminated  bool
}

// runMixedScenario runs a fixed producer/consumer + IRQ-semaphore task
// set under the given personality and returns per-task outcomes.
func runMixedScenario(t *testing.T, kind string) map[string]outcome {
	t.Helper()
	k := sim.NewKernel()
	defer k.Shutdown()
	os := core.New(k, "PE", core.PriorityPolicy{})
	os.Init()
	rt, err := New(kind, os)
	if err != nil {
		t.Fatal(err)
	}

	q := rt.NewQueue("q", 4)
	sem := rt.NewSemaphore("s", 0)

	prod := rt.TaskCreate("prod", core.Aperiodic, 0, 0, 3)
	cons := rt.TaskCreate("cons", core.Aperiodic, 0, 0, 2)
	work := rt.TaskCreate("work", core.Aperiodic, 0, 0, 4)
	tasks := []*core.Task{prod, cons, work}

	k.Spawn("prod", func(p *sim.Proc) {
		rt.Activate(p, prod)
		rt.Compute(p, 10)
		q.Send(p, 1)
		rt.Compute(p, 10)
		q.Send(p, 2)
		rt.Terminate(p)
	})
	k.Spawn("cons", func(p *sim.Proc) {
		rt.Activate(p, cons)
		for want := int64(1); want <= 2; want++ {
			if v := q.Recv(p); v != want {
				t.Errorf("%s: recv = %d, want %d", kind, v, want)
			}
			rt.Compute(p, 5)
		}
		rt.Terminate(p)
	})
	k.Spawn("work", func(p *sim.Proc) {
		rt.Activate(p, work)
		sem.Acquire(p)
		sem.Acquire(p)
		rt.Compute(p, 20)
		rt.Terminate(p)
	})
	irq := k.Spawn("irq", func(p *sim.Proc) {
		p.WaitFor(15)
		for i := 0; i < 2; i++ {
			if i > 0 {
				p.WaitFor(10)
			}
			os.InterruptEnter(p, "irq")
			sem.Release(p)
			os.InterruptReturn(p, "irq")
		}
	})
	irq.SetDaemon(true)

	os.Start(nil)
	if err := k.Run(); err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	if d := os.Diagnosis(); d != nil {
		t.Fatalf("%s: %v", kind, d)
	}
	out := map[string]outcome{}
	for _, task := range tasks {
		out[task.Name()] = outcome{
			cpu:         task.CPUTime(),
			activations: task.Activations(),
			terminated:  task.State() == core.TaskTerminated,
		}
	}
	return out
}

// TestCrossPersonalityOutcomes is the differential oracle at package
// level: the same task set must complete with identical per-task CPU
// time and activation counts under every personality — the personalities
// change kernel API semantics (grant order, wakeup bookkeeping), not the
// modeled work.
func TestCrossPersonalityOutcomes(t *testing.T) {
	ref := runMixedScenario(t, Generic)
	for name, o := range ref {
		if !o.terminated {
			t.Fatalf("generic: task %s did not terminate", name)
		}
	}
	for _, kind := range []string{ITRON, OSEK} {
		got := runMixedScenario(t, kind)
		for name, want := range ref {
			g := got[name]
			if g != want {
				t.Errorf("%s: task %s outcome %+v, want %+v (generic)", kind, name, g, want)
			}
		}
	}
}

// TestSleepWakeTiming pins the sleep/wake mapping of every personality:
// the sleeper must resume exactly when the waker addresses it.
func TestSleepWakeTiming(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Shutdown()
			os := core.New(k, "PE", core.PriorityPolicy{})
			os.Init()
			rt, _ := New(kind, os)

			var wokeAt sim.Time = -1
			slp := rt.TaskCreate("slp", core.Aperiodic, 0, 0, 1)
			wak := rt.TaskCreate("wak", core.Aperiodic, 0, 0, 5)
			k.Spawn("slp", func(p *sim.Proc) {
				rt.Activate(p, slp)
				rt.Sleep(p)
				wokeAt = p.Now()
				rt.Compute(p, 5)
				rt.Terminate(p)
			})
			k.Spawn("wak", func(p *sim.Proc) {
				rt.Activate(p, wak)
				rt.Compute(p, 30)
				rt.Wake(p, slp)
				rt.Terminate(p)
			})
			os.Start(nil)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if wokeAt != 30 {
				t.Errorf("sleeper woke at %v, want 30", wokeAt)
			}
		})
	}
}

// TestChangePriorityRekeysReadyTask verifies the ready-queue re-key hook
// fires through every personality's priority-change service: raising a
// READY task above the running one must preempt at that instant, which
// only happens if the indexed ready queue was re-ranked (a stale key
// would keep dispatching by the old priority).
func TestChangePriorityRekeysReadyTask(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Shutdown()
			os := core.New(k, "PE", core.PriorityPolicy{})
			os.Init()
			rt, _ := New(kind, os)

			var midStart sim.Time = -1
			lo := rt.TaskCreate("lo", core.Aperiodic, 0, 0, 2)
			mid := rt.TaskCreate("mid", core.Aperiodic, 0, 0, 8)
			k.Spawn("lo", func(p *sim.Proc) {
				rt.Activate(p, lo)
				rt.Compute(p, 10)
				rt.ChangePriority(p, mid, 1) // mid is READY: re-key + preempt
				if midStart != 10 {
					t.Errorf("mid had not preempted after chg_pri (start=%v)", midStart)
				}
				rt.Terminate(p)
			})
			k.Spawn("mid", func(p *sim.Proc) {
				rt.Activate(p, mid)
				midStart = p.Now()
				rt.Compute(p, 5)
				rt.Terminate(p)
			})
			os.Start(nil)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if midStart != 10 {
				t.Errorf("mid started at %v, want 10 (the chg_pri instant)", midStart)
			}
		})
	}
}

// TestChangePriorityZeroAlloc pins the re-key hot path at zero
// allocations under both non-generic personalities: toggling a READY
// task's priority updates the indexed ready queue in place. Warm-up
// slices populate the lazy per-task kernel state (ITRON TCB extensions)
// before measurement.
func TestChangePriorityZeroAlloc(t *testing.T) {
	for _, kind := range []string{ITRON, OSEK} {
		t.Run(kind, func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Shutdown()
			os := core.New(k, "PE", core.PriorityPolicy{})
			os.Init()
			rt, _ := New(kind, os)

			// hi toggles the ready lo task between two ranks below its own:
			// every iteration exercises SetPriority → rekeyReady → rq.Update
			// with no dispatch change.
			hi := rt.TaskCreate("hi", core.Aperiodic, 0, 0, 2)
			lo := rt.TaskCreate("lo", core.Aperiodic, 0, 0, 8)
			k.Spawn("hi", func(p *sim.Proc) {
				rt.Activate(p, hi)
				for pri := 8; ; pri ^= 1 { // 8 <-> 9
					rt.Compute(p, 10)
					rt.ChangePriority(p, lo, pri)
				}
			})
			k.Spawn("lo", func(p *sim.Proc) {
				rt.Activate(p, lo)
				rt.Compute(p, sim.Forever/2)
			})
			os.Start(nil)

			var horizon sim.Time
			step := func() {
				horizon += 10_000
				if err := k.RunUntil(horizon); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm-up: lazy TCBs, slice growth
			if avg := testing.AllocsPerRun(20, step); avg != 0 {
				t.Errorf("%s: %.1f allocs per chg_pri slice, want 0", kind, avg)
			}
		})
	}
}

// TestNativeChannelZeroAlloc pins steady-state channel traffic at zero
// allocations under the personalities whose queues and semaphores are
// their own kind: a producer/consumer pair blocking on both a queue and
// a semaphore every round must not allocate once warm.
func TestNativeChannelZeroAlloc(t *testing.T) {
	for _, kind := range []string{ITRON, OSEK} {
		t.Run(kind, func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Shutdown()
			os := core.New(k, "PE", core.PriorityPolicy{})
			os.Init()
			rt, _ := New(kind, os)

			q := rt.NewQueue("q", 1)
			ack := rt.NewSemaphore("ack", 0)
			prod := rt.TaskCreate("prod", core.Aperiodic, 0, 0, 2)
			cons := rt.TaskCreate("cons", core.Aperiodic, 0, 0, 1)
			k.Spawn("prod", func(p *sim.Proc) {
				rt.Activate(p, prod)
				for i := int64(0); ; i++ {
					rt.Compute(p, 10)
					q.Send(p, i)
					ack.Acquire(p)
				}
			})
			k.Spawn("cons", func(p *sim.Proc) {
				rt.Activate(p, cons)
				for {
					q.Recv(p)
					ack.Release(p)
				}
			})
			os.Start(nil)

			var horizon sim.Time
			step := func() {
				horizon += 1000
				if err := k.RunUntil(horizon); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm-up: lazy TCBs, wait-list growth
			if avg := testing.AllocsPerRun(20, step); avg != 0 {
				t.Errorf("%s: %.1f allocs per 100 rounds of queue and semaphore traffic, want 0", kind, avg)
			}
		})
	}
}
