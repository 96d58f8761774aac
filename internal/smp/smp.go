// Package smp extends the paper's single-processor RTOS model
// (internal/core) to symmetric multiprocessing: one scheduler instance
// dispatches tasks globally onto M identical CPUs (global fixed-priority
// or global EDF). The paper lists multiprocessor systems as future work;
// this package models the scheduling side of that direction and lets the
// experiment harness demonstrate classic global-scheduling phenomena such
// as Dhall's effect (a task set with utilization barely above 1 that
// misses deadlines on M processors under global RM/EDF although a
// partitioned mapping meets them).
//
// The modeling technique is the paper's: every task is a simulation
// process parked on a per-task dispatch event; the scheduler keeps at
// most M tasks executing and re-evaluates at every service call. The
// service surface is the scheduling-relevant subset of the paper's
// interface (task creation/activation/termination, modeled execution
// time, periodic end-of-cycle); event handling and fork/join remain the
// domain of the uniprocessor model.
package smp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Policy orders tasks for the global scheduler; the M least tasks under
// Less execute. All provided policies are preemptive.
type Policy interface {
	Name() string
	Less(a, b *Task) bool
}

// FixedPriority is global fixed-priority scheduling (global RM when
// priorities are assigned by period; see AssignRateMonotonic).
type FixedPriority struct{}

// Name returns "g-fp".
func (FixedPriority) Name() string { return "g-fp" }

// Less orders by base priority (smaller = higher).
func (FixedPriority) Less(a, b *Task) bool { return a.prio < b.prio }

// GEDF is global earliest-deadline-first scheduling.
type GEDF struct{}

// Name returns "g-edf".
func (GEDF) Name() string { return "g-edf" }

// Less orders by absolute deadline, then priority.
func (GEDF) Less(a, b *Task) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.prio < b.prio
}

// Task is the SMP scheduler's task control block.
type Task struct {
	os   *OS
	id   int
	name string
	typ  core.TaskType

	period sim.Time
	wcet   sim.Time
	prio   int

	state core.TaskState
	proc  *sim.Proc

	dispatch *sim.Event
	preempt  *sim.Event

	cpu      int // occupied CPU slot, -1 if none
	lastCPU  int // last CPU the task ran on, -1 initially
	slot     int // index in OS.ready, -1 if not ready
	readySeq int

	release      sim.Time
	deadline     sim.Time
	lastWorkDone sim.Time

	cpuTime     sim.Time
	activations int
	missed      int
	migrations  int
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// State returns the task's state (core.TaskState vocabulary).
func (t *Task) State() core.TaskState { return t.state }

// Priority returns the base priority.
func (t *Task) Priority() int { return t.prio }

// CPUTime returns consumed modeled execution time.
func (t *Task) CPUTime() sim.Time { return t.cpuTime }

// Activations returns completed cycles.
func (t *Task) Activations() int { return t.activations }

// MissedDeadlines returns the deadline-miss count.
func (t *Task) MissedDeadlines() int { return t.missed }

// Migrations returns how often the task resumed on a different CPU.
func (t *Task) Migrations() int { return t.migrations }

// Observer receives global-scheduler dispatch events; the simcheck
// harness uses it to verify per-CPU occupancy invariants. All callbacks
// run synchronously inside the simulation and must not block.
type Observer interface {
	// OnDispatch fires when a task is assigned to a CPU slot.
	OnDispatch(at sim.Time, cpu int, t *Task)
	// OnRelease fires when a task vacates its CPU slot (termination,
	// end-of-cycle or preemption).
	OnRelease(at sim.Time, cpu int, t *Task)
}

// ObserverExt extends Observer with the involuntary-preemption edge, so
// the telemetry layer can count preemptions without polling Stats.
// Observers registered via Observe that also implement ObserverExt
// receive it automatically.
type ObserverExt interface {
	Observer
	// OnPreempt fires when t involuntarily loses its CPU slot; the slot
	// release follows as a separate OnRelease callback.
	OnPreempt(at sim.Time, cpu int, t *Task)
}

// Stats aggregates the scheduler's counters.
type Stats struct {
	Dispatches      uint64
	ContextSwitches uint64
	Preemptions     uint64
	Migrations      uint64
	BusyTime        sim.Time
}

// OS is the global multiprocessor scheduler instance.
type OS struct {
	k      *sim.Kernel
	name   string
	policy Policy
	ncpu   int

	running []*Task // slot per CPU; nil = idle
	lastRun []*Task // last task each CPU executed
	tasks   []*Task
	seq     int

	ready []*Task // ready tasks, unordered; pickBest scans them

	segmented bool
	stats     Stats
	observers []Observer
	extObs    []ObserverExt

	// Runtime diagnosis (see diagnosis.go).
	diagnosis  *core.DiagnosisError
	progress   uint64 // dispatch stamp consumed by the watchdog
	watchdogOn bool
}

// New creates a global scheduler over ncpu identical CPUs. segmented
// selects the interruptible time model (recommended for schedulability
// experiments; the coarse model adds chunk-blocking on every CPU).
func New(k *sim.Kernel, name string, policy Policy, ncpu int, segmented bool) *OS {
	if ncpu < 1 {
		panic(fmt.Sprintf("smp: ncpu %d < 1", ncpu))
	}
	os := &OS{
		k:         k,
		name:      name,
		policy:    policy,
		ncpu:      ncpu,
		running:   make([]*Task, ncpu),
		lastRun:   make([]*Task, ncpu),
		segmented: segmented,
	}
	// Translate a generic kernel deadlock into a scheduler diagnosis when
	// this instance has stranded tasks to report (see diagnosis.go).
	k.OnStall(func(at sim.Time, live []*sim.Proc) error {
		if d := os.diagnoseStall(); d != nil {
			os.recordDiagnosis(d)
			return d
		}
		return nil
	})
	return os
}

// Name returns the scheduler instance name.
func (os *OS) Name() string { return os.name }

// NCPU returns the processor count.
func (os *OS) NCPU() int { return os.ncpu }

// Observe registers an observer for dispatch events. Observers that also
// implement ObserverExt additionally receive preemption callbacks.
func (os *OS) Observe(o Observer) {
	os.observers = append(os.observers, o)
	if e, ok := o.(ObserverExt); ok {
		os.extObs = append(os.extObs, e)
	}
}

// Tasks returns all created tasks.
func (os *OS) Tasks() []*Task { return os.tasks }

// StatsSnapshot returns the counters.
func (os *OS) StatsSnapshot() Stats { return os.stats }

// RunningCount returns how many CPUs currently execute a task.
func (os *OS) RunningCount() int {
	n := 0
	for _, t := range os.running {
		if t != nil {
			n++
		}
	}
	return n
}

// TaskCreate allocates a task control block.
func (os *OS) TaskCreate(name string, typ core.TaskType, period, wcet sim.Time, prio int) *Task {
	if typ == core.Periodic && period <= 0 {
		panic(fmt.Sprintf("smp: periodic task %q needs positive period", name))
	}
	t := &Task{
		os:       os,
		id:       len(os.tasks),
		name:     name,
		typ:      typ,
		period:   period,
		wcet:     wcet,
		prio:     prio,
		state:    core.TaskCreated,
		dispatch: os.k.NewEvent(name + ".dispatch"),
		preempt:  os.k.NewEvent(name + ".preempt"),
		cpu:      -1,
		lastCPU:  -1,
		slot:     -1,
		deadline: sim.Forever,
	}
	os.tasks = append(os.tasks, t)
	return t
}

// AssignRateMonotonic rewrites priorities by period rank (global RM).
func (os *OS) AssignRateMonotonic() {
	order := append([]*Task(nil), os.tasks...)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].period < order[j-1].period; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for i, t := range order {
		t.prio = i
	}
}

// TaskActivate binds the calling process to the task, enters the global
// ready queue and blocks until a CPU is assigned.
func (os *OS) TaskActivate(p *sim.Proc, t *Task) {
	t.proc = p
	if t.typ == core.Periodic {
		t.release = os.k.Now()
		t.deadline = t.release + t.period
	}
	os.makeReady(t)
	p.YieldDelta() // collect simultaneous activations before deciding
	os.decide(p)
	os.waitUntilDispatched(p, t)
}

// TaskTerminate ends the calling task and frees its CPU.
func (os *OS) TaskTerminate(p *sim.Proc) {
	t := os.mustRunning(p, "TaskTerminate")
	if t.typ == core.Aperiodic {
		t.activations++
	}
	t.state = core.TaskTerminated
	os.freeSlot(t)
	os.decide(p)
}

// TimeWait models execution time on the task's current CPU.
func (os *OS) TimeWait(p *sim.Proc, d sim.Time) {
	t := os.mustRunning(p, "TimeWait")
	if d < 0 {
		panic(fmt.Sprintf("smp: negative TimeWait %v by %q", d, t.name))
	}
	if os.segmented {
		remaining := d
		for remaining > 0 {
			t.state = core.TaskWaitingTime
			start := os.k.Now()
			preempted := p.WaitTimeout(t.preempt, remaining)
			elapsed := os.k.Now() - start
			t.cpuTime += elapsed
			t.lastWorkDone = os.k.Now()
			os.stats.BusyTime += elapsed
			remaining -= elapsed
			t.state = core.TaskRunning
			if preempted && remaining > 0 {
				os.yieldCPU(p, t)
			}
		}
	} else {
		t.state = core.TaskWaitingTime
		p.WaitFor(d)
		t.cpuTime += d
		t.lastWorkDone = os.k.Now()
		os.stats.BusyTime += d
		t.state = core.TaskRunning
	}
	os.maybeYield(p, t)
}

// TaskEndCycle finishes a periodic task's cycle: record deadline
// performance, free the CPU, wait for the next release, re-contend.
func (os *OS) TaskEndCycle(p *sim.Proc) {
	t := os.mustRunning(p, "TaskEndCycle")
	if t.typ != core.Periodic {
		panic(fmt.Sprintf("smp: TaskEndCycle on aperiodic task %q", t.name))
	}
	now := os.k.Now()
	completion := t.lastWorkDone
	if completion < t.release {
		completion = t.release
	}
	if completion > t.deadline {
		t.missed++
	}
	t.activations++
	next := t.release + t.period
	for next+t.period <= completion {
		next += t.period
		t.missed++
	}
	t.state = core.TaskWaitingPeriod
	os.freeSlot(t)
	os.decide(p)
	if next > now {
		p.WaitFor(next - now)
	}
	t.release = next
	t.deadline = next + t.period
	os.makeReady(t)
	p.YieldDelta()
	os.decide(p)
	os.waitUntilDispatched(p, t)
}

// ---------------------------------------------------------------------------
// Dispatcher.

func (os *OS) mustRunning(p *sim.Proc, op string) *Task {
	for _, t := range os.running {
		if t != nil && t.proc == p {
			return t
		}
	}
	panic(fmt.Sprintf("smp[%s]: %s called by process %q which runs no task", os.name, op, p.Name()))
}

func (os *OS) makeReady(t *Task) {
	if !t.state.Alive() {
		return
	}
	t.state = core.TaskReady
	os.seq++
	t.readySeq = os.seq
	t.slot = len(os.ready)
	os.ready = append(os.ready, t)
}

// unready removes a ready task in O(1): the last entry takes its slot.
func (os *OS) unready(t *Task) {
	last := os.ready[len(os.ready)-1]
	os.ready[t.slot], last.slot = last, t.slot
	os.ready = os.ready[:len(os.ready)-1]
	t.slot = -1
}

// freeSlot vacates the task's CPU slot.
func (os *OS) freeSlot(t *Task) {
	if t.cpu >= 0 {
		cpu := t.cpu
		os.running[cpu] = nil
		t.cpu = -1
		for _, o := range os.observers {
			o.OnRelease(os.k.Now(), cpu, t)
		}
	}
}

// pickBest returns the policy-least ready task, the earliest-readied
// among equals (the FIFO tie-break core.Sched's ready list uses too).
func (os *OS) pickBest() *Task {
	var best *Task
	for _, t := range os.ready {
		if best == nil || os.policy.Less(t, best) ||
			(!os.policy.Less(best, t) && t.readySeq < best.readySeq) {
			best = t
		}
	}
	return best
}

// worstRunning returns the CPU slot whose task orders last (the
// preemption victim), or -1 if some CPU is idle.
func (os *OS) worstRunning() int {
	worst := -1
	for i, t := range os.running {
		if t == nil {
			return -1
		}
		if worst < 0 || os.policy.Less(os.running[worst], t) ||
			(!os.policy.Less(t, os.running[worst]) && t.readySeq > os.running[worst].readySeq) {
			worst = i
		}
	}
	return worst
}

// dispatchInto assigns a ready task to a CPU slot.
func (os *OS) dispatchInto(p *sim.Proc, cpu int, t *Task) {
	if os.running[cpu] != nil {
		panic(fmt.Sprintf("smp[%s]: dispatch into occupied CPU %d", os.name, cpu))
	}
	os.unready(t)
	t.state = core.TaskRunning
	t.cpu = cpu
	os.running[cpu] = t
	os.stats.Dispatches++
	os.progress++
	if os.lastRun[cpu] != nil && os.lastRun[cpu] != t {
		os.stats.ContextSwitches++
	}
	if t.lastCPU >= 0 && t.lastCPU != cpu {
		t.migrations++
		os.stats.Migrations++
	}
	t.lastCPU = cpu
	os.lastRun[cpu] = t
	for _, o := range os.observers {
		o.OnDispatch(os.k.Now(), cpu, t)
	}
	if t.proc != p {
		p.Notify(t.dispatch)
	}
}

// decide fills idle CPUs with the best ready tasks, then (segmented
// model) requests preemption of running tasks that a ready task beats.
func (os *OS) decide(p *sim.Proc) {
	for {
		best := os.pickBest()
		if best == nil {
			return
		}
		free := -1
		for i, t := range os.running {
			if t == nil {
				free = i
				break
			}
		}
		if free < 0 {
			break
		}
		os.dispatchInto(p, free, best)
	}
	if !os.segmented {
		return // coarse: preemption happens at the victims' TimeWait ends
	}
	// Request preemption of victims while a strictly better task waits.
	for {
		best := os.pickBest()
		if best == nil {
			return
		}
		victim := os.worstRunning()
		if victim < 0 || !os.policy.Less(best, os.running[victim]) {
			return
		}
		// The victim yields inside its interruptible TimeWait; one
		// request per victim per decision round.
		p.Notify(os.running[victim].preempt)
		return
	}
}

// maybeYield is the post-TimeWait scheduling point: the caller yields if
// a strictly preferred task is ready (and no CPU is free for it).
func (os *OS) maybeYield(p *sim.Proc, t *Task) {
	best := os.pickBest()
	if best == nil || !os.policy.Less(best, t) {
		// Still give idle CPUs to waiting work.
		os.decide(p)
		return
	}
	os.yieldCPU(p, t)
}

// yieldCPU vacates the caller's slot, requeues it and blocks until
// re-dispatched.
func (os *OS) yieldCPU(p *sim.Proc, t *Task) {
	os.stats.Preemptions++
	for _, o := range os.extObs {
		o.OnPreempt(os.k.Now(), t.cpu, t)
	}
	os.freeSlot(t)
	os.makeReady(t)
	os.decide(p)
	os.waitUntilDispatched(p, t)
}

// waitUntilDispatched parks the caller until it owns a CPU slot.
func (os *OS) waitUntilDispatched(p *sim.Proc, t *Task) {
	for t.cpu < 0 {
		p.Wait(t.dispatch)
	}
}
