// Personality service surface: a narrow set of exported extension points
// that let RTOS personality layers (internal/personality/...) build
// kernel-specific task services, synchronization objects and timed
// services on top of the shared dispatcher, without duplicating — or
// reaching into — its internals. The generic paper-model services
// (TaskSleep, EventWait, ...) are themselves expressible in terms of
// these primitives; the personality layers add the semantics the paper
// deliberately abstracts away: wakeup counting, timeout error codes,
// FIFO-ordered object wait queues, priority-ceiling protocols.
package core

import (
	"fmt"

	"repro/internal/sim"
)

// Suspend blocks the calling task in waiting state ws until another task,
// ISR or timer service resumes it (Resume, TaskActivate). site labels the
// blocking site ("semaphore:s0", "eventflag:rdy") for runtime diagnosis
// reports. ws must be a waiting state; the personality layer is
// responsible for having queued the task on its object before calling.
func (os *OS) Suspend(p *sim.Proc, ws TaskState, site string) {
	t := os.mustCurrent(p, "Suspend")
	checkWaitState(ws)
	os.wake(p, os.BlockAt(os.k.Now(), t, ws, site))
	os.waitUntilDispatched(p, t)
}

// SuspendTimeout is Suspend with a relative timeout. It returns true if
// the task was resumed before the timeout and false if the timeout
// expired first. A negative tmo means wait forever (µITRON TMO_FEVR).
//
// On expiry, onTimeout runs at the timeout instant — before the task
// re-enters the ready queue — so the personality layer can atomically
// remove the task from its object's wait queue; a grant arriving at a
// later instant can then no longer observe the timed-out waiter. A grant
// and the timeout colliding at the same instant resolve in favor of
// whichever happened first in delta order, deterministically.
func (os *OS) SuspendTimeout(p *sim.Proc, ws TaskState, site string, tmo sim.Time, onTimeout func()) bool {
	t := os.mustCurrent(p, "SuspendTimeout")
	if tmo < 0 {
		os.Suspend(p, ws, site)
		return true
	}
	checkWaitState(ws)
	os.wake(p, os.BlockAt(os.k.Now(), t, ws, site))
	deadline := os.k.Now() + tmo
	for t.cpu < 0 && t.state == ws {
		remaining := deadline - os.k.Now()
		if remaining > 0 && p.WaitTimeout(t.dispatch, remaining) {
			continue // dispatch notification: loop re-checks
		}
		if t.state != ws {
			break // granted at the very instant the timer fired
		}
		if onTimeout != nil {
			onTimeout()
		}
		os.Ready(os.k.Now(), t)
		p.YieldDelta()
		os.decideFrom(p)
		os.waitUntilDispatched(p, t)
		return false
	}
	os.waitUntilDispatched(p, t)
	return true
}

// Resume makes a task blocked by Suspend/SuspendTimeout runnable again
// and triggers a scheduling decision (which may preempt the caller). It
// is safe from the running task, an ISR, or a foreign process. Resuming
// a task that is not blocked — it already timed out, or was never
// suspended — is a no-op, so grant/timeout races are harmless.
func (os *OS) Resume(p *sim.Proc, t *Task) {
	if os.Wake(os.k.Now(), t) {
		os.decideFrom(p)
	}
}

// Yield is the explicit scheduling point of cooperative kernels (OSEK
// Schedule): if a strictly preferred task is ready, the caller yields the
// CPU to it — ignoring both a non-preemptive policy and the caller's
// non-preemptable marking, which suppress only involuntary switches.
// With no preferred ready task the caller keeps the CPU.
func (os *OS) Yield(p *sim.Proc) {
	t := os.mustCurrent(p, "Yield")
	if os.preferred(t) {
		os.yieldCPU(p, t)
	}
}

// Requeue moves the calling task to the back of its scheduling rank and
// blocks until it is re-dispatched — the reactivation point of OSEK
// multiple-activation semantics, where a terminated task with a queued
// activation re-enters the ready queue from the rear as a fresh job.
func (os *OS) Requeue(p *sim.Proc) {
	t := os.mustCurrent(p, "Requeue")
	os.wake(p, os.requeue(os.k.Now(), t))
	os.waitUntilDispatched(p, t)
}

// Adopt binds the calling process to task t and parks it suspended until
// another task or ISR activates it (TaskActivate, Resume). It is the
// personality-layer alternative to self-TaskActivate for kernels whose
// tasks are declared before they first run (OSEK: tasks without
// autostart begin in the SUSPENDED state).
func (os *OS) Adopt(p *sim.Proc, t *Task) {
	if t.proc != nil && t.proc != p {
		panic(fmt.Sprintf("core[%s]: Adopt of task %q already bound to %q",
			os.name, t.name, t.proc.Name()))
	}
	if t.state != TaskCreated {
		panic(fmt.Sprintf("core[%s]: Adopt of task %q in state %s", os.name, t.name, t.state))
	}
	t.proc = p
	os.setState(os.k.Now(), t, TaskSuspended)
	os.waitUntilDispatched(p, t)
}

// MakeReady enters a suspended or created task into the ready queue
// without triggering a scheduling decision. Personality layers use it
// for atomic hand-offs (OSEK ChainTask readies the successor first; the
// caller's own termination then performs the single dispatch decision).
// Pair with Reschedule, or with a service that releases the CPU.
func (os *OS) MakeReady(t *Task) {
	switch t.state {
	case TaskSuspended, TaskCreated:
		os.Ready(os.k.Now(), t)
	}
}

// Reschedule triggers a scheduling decision from the calling context. A
// personality service that changed scheduling attributes without
// blocking or readying anything (chg_pri, ceiling-priority restore)
// calls it so a now-preferred ready task preempts immediately.
func (os *OS) Reschedule(p *sim.Proc) { os.decideFrom(p) }

// checkWaitState restricts Suspend to states the dispatcher treats as
// blocked-on-another-task (plus TaskWaitingTime for interruptible timed
// sleeps like µITRON dly_tsk, which rel_wai can release).
func checkWaitState(ws TaskState) {
	if ws == TaskWaitingTime || isBlockedState(ws) {
		return
	}
	panic(fmt.Sprintf("core: Suspend in non-waiting state %s", ws))
}
