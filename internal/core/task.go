// Package core implements the abstract RTOS model of Gerstlauer, Yu and
// Gajski, "RTOS Modeling for System Level Design" (DATE 2003): a library
// object layered on top of the SLDL simulation kernel (internal/sim) that
// provides the key services of a real-time operating system — task
// management, dynamic scheduling with preemption, inter-task event
// synchronization, time modeling, and interrupt handling — so that the
// dynamic behavior of a multi-tasking processing element can be modeled
// and evaluated long before a concrete RTOS is targeted.
//
// The OS type exposes the paper's Figure 4 interface. Tasks are ordinary
// simulation processes that route their timing (TimeWait instead of
// waitfor) and synchronization (EventWait/EventNotify instead of
// wait/notify) through the OS object; the OS serializes them so that at
// any simulated instant at most one task of a processing element executes,
// selected by a pluggable scheduling policy.
package core

import (
	"fmt"

	"repro/internal/sim"
)

// TaskType distinguishes the paper's two task classes.
type TaskType int

const (
	// Aperiodic tasks run to completion once activated and have a fixed
	// priority.
	Aperiodic TaskType = iota
	// Periodic tasks execute one cycle per period and call TaskEndCycle to
	// wait for their next release.
	Periodic
)

// String returns "aperiodic" or "periodic".
func (t TaskType) String() string {
	if t == Periodic {
		return "periodic"
	}
	return "aperiodic"
}

// TaskState is the RTOS-level task state machine (distinct from the
// underlying simulation process state).
type TaskState int

const (
	// TaskCreated: allocated by TaskCreate, not yet activated.
	TaskCreated TaskState = iota
	// TaskReady: runnable, waiting in the ready queue for dispatch.
	TaskReady
	// TaskRunning: the task currently holding the (modeled) CPU.
	TaskRunning
	// TaskWaitingEvent: blocked in EventWait.
	TaskWaitingEvent
	// TaskWaitingTime: executing a modeled delay inside TimeWait. The task
	// logically occupies the CPU for the duration.
	TaskWaitingTime
	// TaskWaitingChildren: suspended by ParStart until ParEnd.
	TaskWaitingChildren
	// TaskWaitingPeriod: a periodic task between TaskEndCycle and its next
	// release.
	TaskWaitingPeriod
	// TaskWaitingMutex: blocked in Mutex.Lock.
	TaskWaitingMutex
	// TaskSuspended: suspended by TaskSleep until TaskActivate.
	TaskSuspended
	// TaskTerminated: finished via TaskTerminate.
	TaskTerminated
	// TaskKilled: forcibly removed via TaskKill.
	TaskKilled
)

// String returns a short lower-case state name.
func (s TaskState) String() string {
	switch s {
	case TaskCreated:
		return "created"
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskWaitingEvent:
		return "wait-event"
	case TaskWaitingTime:
		return "delay"
	case TaskWaitingChildren:
		return "wait-children"
	case TaskWaitingPeriod:
		return "wait-period"
	case TaskWaitingMutex:
		return "wait-mutex"
	case TaskSuspended:
		return "suspended"
	case TaskTerminated:
		return "terminated"
	case TaskKilled:
		return "killed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Alive reports whether the task can still run (not terminated or killed).
func (s TaskState) Alive() bool { return s != TaskTerminated && s != TaskKilled }

// Task is the RTOS model's task control block, shared by both execution
// engines. Tasks are created with OS.TaskCreate (or Sched.NewTask) and
// bound to their simulation process on first TaskActivate. Priority follows the convention smaller value = higher
// priority (as in VxWorks or µC/OS).
type Task struct {
	id   int
	name string
	typ  TaskType

	// Static parameters (paper: task_create(name, type, period, wcet)).
	period sim.Time // release period for periodic tasks
	wcet   sim.Time // worst-case execution time budget (informational;
	// used by the schedulability analysis extension)
	prio int // base priority; smaller = higher

	state TaskState
	proc  *sim.Proc // bound on first activation

	dispatch *sim.Event // released by the dispatcher to hand over the CPU
	preempt  *sim.Event // preemption request (segmented time model only)

	readySeq  int      // FIFO tie-break within equal scheduling rank
	rqIx      int      // slot in the ready list; -1 when not ready
	release   sim.Time // current/next release time (periodic)
	deadline  sim.Time // absolute deadline (EDF); Forever for aperiodic
	sliceUsed sim.Time // consumed share of the round-robin slice

	// Accounting, exposed via Stats and the trace layer.
	lastWorkDone sim.Time // instant the task's last modeled delay completed
	cpuTime      sim.Time // accumulated modeled execution time
	activations  int      // completed cycles (periodic) or activations
	missed       int      // deadline misses observed at end of cycle

	blockSite    string    // last blocking site, for runtime diagnosis reports
	waitingRes   *Resource // resource the task is blocked on (wait-for graph)
	nonpreempt   bool      // involuntary preemption suppressed (OSEK non-preemptable)
	chargeSwitch bool      // this dispatch was a context switch: charge overhead
}

// ID returns the task's creation-ordered identifier within its OS.
func (t *Task) ID() int { return t.id }

// Name returns the task name given to TaskCreate.
func (t *Task) Name() string { return t.name }

// Type returns Periodic or Aperiodic.
func (t *Task) Type() TaskType { return t.typ }

// State returns the task's current RTOS state.
func (t *Task) State() TaskState { return t.state }

// Priority returns the task's current base priority (smaller = higher).
func (t *Task) Priority() int { return t.prio }

// SetPriority changes the base priority. It takes effect at the next
// scheduling decision; changing the priority of a ready or running task
// does not itself trigger a dispatch.
func (t *Task) SetPriority(p int) { t.prio = p }

// SetDeadline overrides the task's current absolute deadline (the EDF
// rank). Periodic bookkeeping overwrites it at the task's next release;
// the fault-injection layer uses it to make transient stall tasks win
// under deadline-driven policies.
func (t *Task) SetDeadline(d sim.Time) { t.deadline = d }

// SetPreemptable marks whether the task may be preempted involuntarily.
// Non-preemptable tasks (OSEK non-preemptive conformance, internal
// resources) run to their next voluntary scheduling point — blocking
// service, termination, or an explicit Yield — even under a preemptive
// policy. Tasks default to preemptable.
func (t *Task) SetPreemptable(on bool) { t.nonpreempt = !on }

// Period returns the task's period (0 for aperiodic tasks).
func (t *Task) Period() sim.Time { return t.period }

// WCET returns the task's declared worst-case execution time budget.
func (t *Task) WCET() sim.Time { return t.wcet }

// Deadline returns the task's current absolute deadline.
func (t *Task) Deadline() sim.Time { return t.deadline }

// Release returns the task's current release time (periodic tasks; 0
// before the first activation).
func (t *Task) Release() sim.Time { return t.release }

// LastWorkDone returns the instant the task's last modeled delay
// completed — the completion time TaskEndCycle charges deadlines against,
// even when the task is preempted right at the delay boundary.
func (t *Task) LastWorkDone() sim.Time { return t.lastWorkDone }

// CPUTime returns the modeled execution time the task has consumed so far.
func (t *Task) CPUTime() sim.Time { return t.cpuTime }

// Activations returns the number of completed activations/cycles.
func (t *Task) Activations() int { return t.activations }

// MissedDeadlines returns how many cycles completed after their deadline.
func (t *Task) MissedDeadlines() int { return t.missed }

// NoteActivation records a completed activation of the task. Personality
// layers whose tasks park (suspend) at end-of-job instead of terminating
// use it to keep activation accounting comparable with the generic
// TaskTerminate path.
func (t *Task) NoteActivation() { t.activations++ }

// Proc returns the bound simulation process (nil before first activation).
func (t *Task) Proc() *sim.Proc { return t.proc }

func (t *Task) String() string {
	return fmt.Sprintf("task %d %q prio=%d (%s)", t.id, t.name, t.prio, t.state)
}
