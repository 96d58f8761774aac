package rtc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/personality/itron"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// osState is the RTOS model on the run-to-completion engine: the shared
// scheduler state (core.Sched, the same one core.OS runs on the goroutine
// kernel) plus the engine's glue — the machine bound to each task, the
// wake-up of a dispatched task's machine, and each blocking service
// re-expressed as a resumable frame.
type osState struct {
	core.Sched
	k     *kernel
	tasks []*machine         // task id → the machine running it
	rec   *trace.Recorder    // nil unless the workload traces
	mark  telemetry.Sink     // where markers go: rec and/or the buses; nil for neither
	itron *itron.Kernel      // the ITRON objects' tcb half; nil until one is built
	specs map[string]TaskDef // hierarchical workloads: behavior → refinement mapping
}

// itronKernel returns the ITRON object kernel, creating it on first use.
func (os *osState) itronKernel() *itron.Kernel {
	if os.itron == nil {
		os.itron = itron.NewSchedKernel(&os.Sched)
	}
	return os.itron
}

// newTask creates a task control block; bind attaches its machine.
func (os *osState) newTask(name string, typ core.TaskType, period Time, prio int) *core.Task {
	t := os.NewTask(name, typ, period, 0, prio)
	os.tasks = append(os.tasks, nil)
	return t
}

// bind makes m the machine that runs t.
func (os *osState) bind(t *core.Task, m *machine) {
	os.tasks[t.ID()] = m
	m.task = t
}

// daemon reports tasks whose machine is a daemon (core.Sched.DiagnoseStall).
func (os *osState) daemon(t *core.Task) bool {
	m := os.tasks[t.ID()]
	return m != nil && m.daemon
}

// wake resumes the machine of a task the scheduler dispatched if it is
// parked in fWaitDispatched (state mWaitEvent) — the goroutine kernel's
// notify of the task's dispatch event. The calling machine is running,
// so it is never the one woken.
func (os *osState) wake(next *core.Task) {
	if next == nil {
		return
	}
	if w := os.tasks[next.ID()]; w.state == mWaitEvent {
		w.wakeFromEvent()
	}
}

func (os *osState) mustCurrent(m *machine) *core.Task {
	t := os.Current()
	if t == nil || t != m.task {
		os.badCurrent(m)
	}
	return t
}

// badCurrent keeps the panic's formatting out of mustCurrent so the
// latter inlines into every service frame.
func (os *osState) badCurrent(m *machine) {
	panic(fmt.Sprintf("rtc[%s]: machine %s ran an OS service while not dispatched", os.Name(), m.name))
}

// taskTerminate is core.OS.TaskTerminate — non-blocking, so a plain
// method rather than a frame; the caller's body frame returns after it.
func (os *osState) taskTerminate(m *machine) {
	os.wake(os.Terminate(os.k.now, os.mustCurrent(m)))
}

// --- services ---

// The services below act for the machine's own task, m.task; only
// resume addresses another task. Only the services that block are
// frames: fActivate, fEndCycle, fTimeWait and fWaitDispatched. The
// others are methods that return then, the caller's own verdict, or end
// in waitDispatched: statCall keeps the calling frame, which steps again
// once its task holds the CPU (the dispatch wait is pushed above it),
// and statDone drops it (the dispatch wait replaces it).

// waitDispatched parks m in fWaitDispatched unless its task is current.
func (m *machine) waitDispatched(then status) status {
	if m.k.os.Current() == m.task {
		return then
	}
	m.fWD = fWaitDispatched{}
	if then == statDone {
		return m.tailcall(&m.fWD)
	}
	return m.push(&m.fWD)
}

// fWaitDispatched is core's waitUntilDispatched predicate loop: park the
// machine until the scheduler selects its task (see osState.wake).
type fWaitDispatched struct {
	pc int
}

func (f *fWaitDispatched) step(m *machine) status {
	if m.k.os.Current() != m.task {
		f.pc = 1
		m.state = mWaitEvent
		return statBlocked
	}
	return statDone
}

// yield is core's yieldCPU: hand the CPU to a better task and wait to
// be re-dispatched.
func (m *machine) yield(then status) status {
	os := m.k.os
	os.wake(os.Preempt(os.k.now, m.task))
	return m.waitDispatched(then)
}

// decideFrom is core's decideFrom: re-evaluate scheduling after a
// wakeup, preempting the running task if the policy demands it, and
// yield if m's own task must give up the CPU.
func (m *machine) decideFrom(then status) status {
	os := m.k.os
	cur := os.Current()
	t, d := os.Decide(os.k.now, cur != nil && cur == m.task)
	switch d {
	case core.Wake:
		os.wake(t)
	case core.Yield: // t is m.task
		return m.yield(then)
	case core.Interrupt: // cut t's segmented delay short, if it is in one
		if w := os.tasks[t.ID()]; w.state == mWaitTimeout {
			w.wakeFromEvent()
		}
	}
	return then
}

// eventWait is core's EventWait on an OS event object.
func (m *machine) eventWait(e *core.OSEvent, then status) status {
	os := m.k.os
	os.wake(os.WaitEvent(os.k.now, os.mustCurrent(m), e))
	return m.waitDispatched(then)
}

// eventNotify is core's EventNotify: wake every queued waiter (a
// notification with no waiters is lost) and re-evaluate scheduling.
func (m *machine) eventNotify(e *core.OSEvent, then status) status {
	os := m.k.os
	if os.NotifyEvent(os.k.now, e) {
		return m.decideFrom(then)
	}
	return then
}

// suspend is core's Suspend: park the current task in a waiting state
// until something resumes it.
func (m *machine) suspend(ws core.TaskState, site string, then status) status {
	os := m.k.os
	os.wake(os.BlockAt(os.k.now, os.mustCurrent(m), ws, site))
	return m.waitDispatched(then)
}

// resume is core's Resume: make a suspended task ready again and
// re-evaluate scheduling. Safe from ISR machines.
func (m *machine) resume(t *core.Task, then status) status {
	os := m.k.os
	if os.Wake(os.k.now, t) {
		return m.decideFrom(then)
	}
	return then
}

// callActivate, callEndCycle and callTimeWait reset the machine's
// preallocated frame of a blocking service and push it.

func (m *machine) callActivate() status {
	m.fAct = fActivate{}
	return m.push(&m.fAct)
}

func (m *machine) callEndCycle() status {
	m.fEnd = fEndCycle{}
	return m.push(&m.fEnd)
}

func (m *machine) callTimeWait(d Time) status {
	m.fTW = fTimeWait{d: d}
	return m.push(&m.fTW)
}

// fActivate is core's TaskActivate for the self-activation path the
// workloads use: stamp the first release, enter the ready queue, let the
// delta cycle settle, then contend for the CPU.
type fActivate struct {
	pc int
}

func (f *fActivate) step(m *machine) status {
	os := m.k.os
	switch f.pc {
	case 0:
		os.Activate(os.k.now, m.task)
		f.pc = 1
		m.yieldDelta()
		return statBlocked
	case 1:
		f.pc = 2
		return m.decideFrom(statCall)
	default:
		return m.waitDispatched(statDone)
	}
}

// fEndCycle is core's TaskEndCycle: close the cycle's accounting,
// sleep until the next release, and contend for the CPU again.
type fEndCycle struct {
	next Time
	pc   int
}

func (f *fEndCycle) step(m *machine) status {
	os := m.k.os
	switch f.pc {
	case 0:
		now := os.k.now
		next, woken := os.EndCycle(now, os.mustCurrent(m))
		os.wake(woken)
		f.next = next
		f.pc = 1
		if next > now {
			m.sleep(next - now)
			return statBlocked
		}
		return statCall // no child pushed; loop re-steps at pc 1
	case 1:
		os.NextCycle(os.k.now, m.task, f.next)
		f.pc = 2
		m.yieldDelta()
		return statBlocked
	case 2:
		f.pc = 3
		return m.decideFrom(statCall)
	default:
		return m.waitDispatched(statDone)
	}
}

// fTimeWait is core's TimeWait: model computation time under the coarse
// or segmented time model, with the round-robin slice check on entry and
// the preemption check on exit.
type fTimeWait struct {
	d         Time
	remaining Time
	start     Time
	pc        int
}

func (f *fTimeWait) step(m *machine) status {
	os := m.k.os
	t := os.mustCurrent(m)
	for {
		switch f.pc {
		case 0: // round-robin slice expiry check
			f.pc = 1
			if os.SliceExpired(t) {
				return m.yield(statCall)
			}
		case 1:
			if os.TimeModelUsed() == core.TimeModelSegmented {
				f.remaining = f.d
				f.pc = 10
			} else {
				f.pc = 20
			}
		case 10: // segmented loop head
			if f.remaining <= 0 {
				f.pc = 30
				continue
			}
			f.start = os.k.now
			os.BeginDelay(f.start, t)
			f.pc = 11
			m.waitTimeout(f.remaining)
			return statBlocked
		case 11: // segment ended (timer) or interrupted (decideFrom)
			preempted := !m.timedOut
			elapsed := os.k.now - f.start
			os.EndDelay(os.k.now, t, elapsed)
			f.remaining -= elapsed
			f.pc = 10
			if preempted && f.remaining > 0 {
				return m.yield(statCall)
			}
		case 20: // coarse: one non-preemptible delay
			os.BeginDelay(os.k.now, t)
			f.pc = 21
			m.sleep(f.d)
			return statBlocked
		case 21:
			os.EndDelay(os.k.now, t, f.d)
			f.pc = 30
		case 30: // maybePreempt
			if os.ShouldPreempt(t) {
				return m.yield(statDone)
			}
			return statDone
		default:
			return statDone
		}
	}
}
