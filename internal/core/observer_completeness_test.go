package core

import (
	"testing"

	"repro/internal/sim"
)

// statObserver derives every Stats counter from the ObserverExt event
// stream alone — it never reads os.stats. The completeness test below
// asserts its derivation matches StatsSnapshot exactly, which guards the
// observer hooks against drift: if a code path ever bumps a counter
// without emitting the corresponding event (or vice versa), this fails.
type statObserver struct {
	dispatches  uint64
	ctxSwitches uint64
	preemptions uint64
	irqEnters   uint64
	irqReturns  uint64
	releases    uint64
	blocks      uint64
	unblocks    uint64
	readyLast   int
	lastRun     *Task
	states      map[*Task]TaskState
}

func newStatObserver() *statObserver {
	return &statObserver{states: map[*Task]TaskState{}}
}

func (o *statObserver) OnTaskState(at sim.Time, t *Task, old, new TaskState) {
	o.states[t] = new
}

func (o *statObserver) OnDispatch(at sim.Time, cpu int, prev, next *Task) {
	if next == nil {
		return
	}
	o.dispatches++
	if o.lastRun != nil && o.lastRun != next {
		o.ctxSwitches++
	}
	o.lastRun = next
}

func (o *statObserver) OnIRQ(at sim.Time, name string, enter bool) {
	if enter {
		o.irqEnters++
	} else {
		o.irqReturns++
	}
}

func (o *statObserver) OnRelease(at sim.Time, t *Task)              { o.releases++ }
func (o *statObserver) OnPreempt(at sim.Time, cpu int, t, by *Task) { o.preemptions++ }
func (o *statObserver) OnBlock(at sim.Time, t *Task, r BlockReason) { o.blocks++ }
func (o *statObserver) OnUnblock(at sim.Time, t *Task, r BlockReason) {
	o.unblocks++
}
func (o *statObserver) OnReadyQueue(at sim.Time, cpu, n int) { o.readyLast = n }

// completenessScenario exercises every hook source: periodic tasks
// (releases, period blocks), event waits (block/unblock with reason),
// preemption via an ISR-released high-priority task, and IRQ
// enter/return.
func completenessScenario(t *testing.T, tm TimeModel) (*OS, *statObserver) {
	t.Helper()
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{}, WithTimeModel(tm))
	obs := newStatObserver()
	os.Observe(obs)

	e := os.EventNew("data")
	high := os.TaskCreate("high", Aperiodic, 0, 0, 1)
	mid := os.TaskCreate("mid", Periodic, 100, 20, 2)
	low := os.TaskCreate("low", Aperiodic, 0, 0, 3)

	k.Spawn("high", taskBody(os, high, func(p *sim.Proc) {
		os.EventWait(p, e)
		os.TimeWait(p, 10)
	}))
	k.Spawn("mid", taskBody(os, mid, func(p *sim.Proc) {
		for c := 0; c < 4; c++ {
			os.TimeWait(p, 20)
			os.TaskEndCycle(p)
		}
	}))
	k.Spawn("low", taskBody(os, low, func(p *sim.Proc) {
		os.TimeWait(p, 150)
	}))
	k.Spawn("isr", func(p *sim.Proc) {
		p.WaitFor(45)
		os.InterruptEnter(p, "irq0")
		os.EventNotify(p, e)
		os.InterruptReturn(p, "irq0")
	})
	os.Start(nil)
	run(t, k)
	return os, obs
}

func TestObserverStreamDerivesStats(t *testing.T) {
	for _, tm := range []TimeModel{TimeModelCoarse, TimeModelSegmented} {
		t.Run(tm.String(), func(t *testing.T) {
			os, obs := completenessScenario(t, tm)
			st := os.StatsSnapshot()

			if obs.dispatches != st.Dispatches {
				t.Errorf("derived dispatches = %d, stats %d", obs.dispatches, st.Dispatches)
			}
			if obs.ctxSwitches != st.ContextSwitches {
				t.Errorf("derived context switches = %d, stats %d", obs.ctxSwitches, st.ContextSwitches)
			}
			if obs.preemptions != st.Preemptions {
				t.Errorf("derived preemptions = %d, stats %d", obs.preemptions, st.Preemptions)
			}
			if obs.irqReturns != st.IRQs {
				t.Errorf("derived IRQ returns = %d, stats %d", obs.irqReturns, st.IRQs)
			}
			if obs.irqEnters != obs.irqReturns {
				t.Errorf("IRQ balance: %d enters vs %d returns", obs.irqEnters, obs.irqReturns)
			}
			if obs.preemptions == 0 {
				t.Error("scenario produced no preemptions; it no longer exercises OnPreempt")
			}
			if obs.blocks == 0 || obs.unblocks == 0 {
				t.Errorf("scenario produced blocks=%d unblocks=%d; want both > 0",
					obs.blocks, obs.unblocks)
			}
			// Every periodic cycle start and initial activation is a release.
			if obs.releases == 0 {
				t.Error("scenario produced no releases")
			}
			if obs.readyLast != 0 {
				t.Errorf("final ready-queue length %d, want 0 (all tasks terminated)", obs.readyLast)
			}
			for task, s := range obs.states {
				if s != TaskTerminated && s != TaskKilled {
					t.Errorf("task %s final state %v, want terminated", task.Name(), s)
				}
			}
		})
	}
}

// TestObserverBlockReasons checks the reason classification on the
// block/unblock edges for each waiting state.
func TestObserverBlockReasons(t *testing.T) {
	k := sim.NewKernel()
	os := New(k, "PE", PriorityPolicy{})
	type edge struct {
		task   string
		reason BlockReason
	}
	var blocks, unblocks []edge
	obs := &funcObserverExt{
		onBlock: func(at sim.Time, tk *Task, r BlockReason) {
			blocks = append(blocks, edge{tk.Name(), r})
		},
		onUnblock: func(at sim.Time, tk *Task, r BlockReason) {
			unblocks = append(unblocks, edge{tk.Name(), r})
		},
	}
	os.Observe(obs)

	e := os.EventNew("ev")
	m := os.MutexNew("mu", false)
	holder := os.TaskCreate("holder", Aperiodic, 0, 0, 1)
	contender := os.TaskCreate("contender", Aperiodic, 0, 0, 2)
	notifier := os.TaskCreate("notifier", Aperiodic, 0, 0, 3)
	per := os.TaskCreate("per", Periodic, 50, 5, 4)

	// The holder blocks on the event while owning the mutex, so the
	// contender's Lock genuinely contends (a uniprocessor task can only
	// observe a held mutex when the owner blocked while holding it).
	k.Spawn("holder", taskBody(os, holder, func(p *sim.Proc) {
		m.Lock(p)          // free, acquired immediately
		os.EventWait(p, e) // BlockEvent, still owning the mutex
		m.Unlock(p)
	}))
	k.Spawn("contender", taskBody(os, contender, func(p *sim.Proc) {
		os.TimeWait(p, 5)
		m.Lock(p) // BlockMutex: held by the blocked holder
		m.Unlock(p)
	}))
	k.Spawn("notifier", taskBody(os, notifier, func(p *sim.Proc) {
		os.TimeWait(p, 20)
		os.EventNotify(p, e)
	}))
	k.Spawn("per", taskBody(os, per, func(p *sim.Proc) {
		for c := 0; c < 2; c++ {
			os.TimeWait(p, 5)
			os.TaskEndCycle(p) // BlockPeriod
		}
	}))
	os.Start(nil)
	run(t, k)

	want := map[BlockReason]bool{}
	for _, b := range blocks {
		want[b.reason] = true
	}
	for _, r := range []BlockReason{BlockEvent, BlockMutex, BlockPeriod} {
		if !want[r] {
			t.Errorf("no block observed with reason %v (got %v)", r, blocks)
		}
	}
	if len(unblocks) == 0 {
		t.Fatal("no unblocks observed")
	}
	// Unblock reasons must mirror what the task blocked on.
	pending := map[string]BlockReason{}
	for _, b := range blocks {
		pending[b.task] = b.reason
	}
	for _, u := range unblocks {
		if r, ok := pending[u.task]; ok && r != u.reason {
			t.Errorf("task %s unblocked with reason %v, last blocked with %v", u.task, u.reason, r)
		}
	}
}

// funcObserverExt adapts closures to ObserverExt for tests.
type funcObserverExt struct {
	onBlock   func(sim.Time, *Task, BlockReason)
	onUnblock func(sim.Time, *Task, BlockReason)
}

func (f *funcObserverExt) OnTaskState(sim.Time, *Task, TaskState, TaskState) {}
func (f *funcObserverExt) OnDispatch(sim.Time, int, *Task, *Task)            {}
func (f *funcObserverExt) OnIRQ(sim.Time, string, bool)                      {}
func (f *funcObserverExt) OnRelease(sim.Time, *Task)                         {}
func (f *funcObserverExt) OnPreempt(sim.Time, int, *Task, *Task)             {}
func (f *funcObserverExt) OnBlock(at sim.Time, t *Task, r BlockReason) {
	if f.onBlock != nil {
		f.onBlock(at, t, r)
	}
}
func (f *funcObserverExt) OnUnblock(at sim.Time, t *Task, r BlockReason) {
	if f.onUnblock != nil {
		f.onUnblock(at, t, r)
	}
}
func (f *funcObserverExt) OnReadyQueue(sim.Time, int, int) {}
