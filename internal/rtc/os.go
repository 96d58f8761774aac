package rtc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/personality/itron"
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
	tasks []*machine      // task id → the machine running it
	rec   *trace.Recorder // nil unless the workload traces
	itron *itron.Kernel   // the ITRON objects' tcb half; nil until one is built
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

// wake resumes the machine of a task the scheduler dispatched, unless it
// is the caller itself or not parked in fWaitDispatched — the goroutine
// kernel's notify of the task's dispatch event. A parked machine holds
// no timer and no other registrations, so it just re-enters the next
// delta cycle.
func (os *osState) wake(m *machine, next *core.Task) {
	if next == nil {
		return
	}
	w := os.tasks[next.ID()]
	if w == m || !w.parked {
		return
	}
	w.parked = false
	if w.state == mWaitEvent {
		w.timedOut = false
		w.state = mReady
		os.k.enqueueNext(w)
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
	os.wake(m, os.Terminate(os.k.now, os.mustCurrent(m)))
}

// --- service frames ---

// call helpers: reset the machine's preallocated frame and push it.

func (m *machine) callYield(os *osState) status {
	m.fY = fYieldCPU{os: os}
	return m.push(&m.fY)
}

func (m *machine) callDecide(os *osState) status {
	m.fDec = fDecideFrom{os: os}
	return m.push(&m.fDec)
}

// tail variants: replace the caller instead of pushing (see tailcall).

// tailWaitDispatched skips fWaitDispatched when the task is current.
func (m *machine) tailWaitDispatched(os *osState) status {
	if os.Current() == m.task {
		return statDone
	}
	m.fWD = fWaitDispatched{os: os}
	return m.tailcall(&m.fWD)
}

func (m *machine) tailYield(os *osState) status {
	m.fY = fYieldCPU{os: os}
	return m.tailcall(&m.fY)
}

func (m *machine) tailDecide(os *osState) status {
	m.fDec = fDecideFrom{os: os}
	return m.tailcall(&m.fDec)
}

func (m *machine) tailEventNotify(e *core.OSEvent, os *osState) status {
	m.fEN = fEventNotify{os: os, e: e}
	return m.tailcall(&m.fEN)
}

func (m *machine) tailResume(t *core.Task, os *osState) status {
	m.fRes = fResume{os: os, t: t}
	return m.tailcall(&m.fRes)
}

func (m *machine) callActivate(os *osState) status {
	m.fAct = fActivate{os: os}
	return m.push(&m.fAct)
}

func (m *machine) callEndCycle(os *osState) status {
	m.fEnd = fEndCycle{os: os}
	return m.push(&m.fEnd)
}

func (m *machine) callTimeWait(d Time, os *osState) status {
	m.fTW = fTimeWait{os: os, d: d}
	return m.push(&m.fTW)
}

func (m *machine) callEventWait(e *core.OSEvent, os *osState) status {
	m.fEW = fEventWait{os: os, e: e}
	return m.push(&m.fEW)
}

func (m *machine) callEventNotify(e *core.OSEvent, os *osState) status {
	m.fEN = fEventNotify{os: os, e: e}
	return m.push(&m.fEN)
}

func (m *machine) callSuspend(ws core.TaskState, site string, os *osState) status {
	m.fSus = fSuspend{os: os, ws: ws, site: site}
	return m.push(&m.fSus)
}

// The service frames below act for the machine's own task, m.task; only
// fResume addresses another task.

// fWaitDispatched is core's waitUntilDispatched predicate loop: park the
// machine until the scheduler selects its task (see osState.wake).
type fWaitDispatched struct {
	os *osState
	pc int
}

func (f *fWaitDispatched) step(m *machine) status {
	if f.os.Current() != m.task {
		f.pc = 1
		m.parked = true
		m.state = mWaitEvent
		return statBlocked
	}
	return statDone
}

// fYieldCPU is core's yieldCPU: hand the CPU to a better task and wait
// to be re-dispatched.
type fYieldCPU struct {
	os *osState
}

func (f *fYieldCPU) step(m *machine) status {
	f.os.wake(m, f.os.Preempt(f.os.k.now, m.task))
	return m.tailWaitDispatched(f.os)
}

// decide is core's decideFrom: re-evaluate scheduling after a wakeup,
// preempting the running task if the policy demands it. It reports
// whether m's own task must yield the CPU (core.Yield), which the
// caller does through fYieldCPU.
func (os *osState) decide(m *machine) bool {
	cur := os.Current()
	t, d := os.Decide(os.k.now, cur != nil && cur == m.task)
	switch d {
	case core.Wake:
		os.wake(m, t)
	case core.Yield: // t is m.task
		return true
	case core.Interrupt:
		os.k.flush(&os.tasks[t.ID()].preempt)
	}
	return false
}

// fDecideFrom is decide as a frame.
type fDecideFrom struct {
	os *osState
}

func (f *fDecideFrom) step(m *machine) status {
	if f.os.decide(m) {
		return m.tailYield(f.os)
	}
	return statDone
}

// fActivate is core's TaskActivate for the self-activation path the
// workloads use: stamp the first release, enter the ready queue, let the
// delta cycle settle, then contend for the CPU. The decision runs
// inline (as in fEndCycle); only a yield pushes a frame.
type fActivate struct {
	os *osState
	pc int
}

func (f *fActivate) step(m *machine) status {
	switch f.pc {
	case 0:
		f.os.Activate(f.os.k.now, m.task)
		f.pc = 1
		m.yieldDelta()
		return statBlocked
	case 1:
		f.pc = 2
		if f.os.decide(m) {
			return m.callYield(f.os)
		}
		fallthrough
	default:
		return m.tailWaitDispatched(f.os)
	}
}

// fEndCycle is core's TaskEndCycle: close the cycle's accounting,
// sleep until the next release, and contend for the CPU again.
type fEndCycle struct {
	os   *osState
	next Time
	pc   int
}

func (f *fEndCycle) step(m *machine) status {
	os := f.os
	switch f.pc {
	case 0:
		now := os.k.now
		next, woken := os.EndCycle(now, os.mustCurrent(m))
		os.wake(m, woken)
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
		if os.decide(m) {
			return m.callYield(os)
		}
		fallthrough
	default:
		return m.tailWaitDispatched(os)
	}
}

// fTimeWait is core's TimeWait: model computation time under the coarse
// or segmented time model, with the round-robin slice check on entry and
// the preemption check on exit.
type fTimeWait struct {
	os        *osState
	d         Time
	remaining Time
	start     Time
	pc        int
}

func (f *fTimeWait) step(m *machine) status {
	os := f.os
	t := os.mustCurrent(m)
	for {
		switch f.pc {
		case 0: // round-robin slice expiry check
			f.pc = 1
			if os.SliceExpired(t) {
				return m.callYield(os)
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
			m.waitTimeout(&m.preempt, f.remaining)
			return statBlocked
		case 11: // segment ended (timer) or interrupted (preempt event)
			m.afterWait()
			preempted := !m.timedOut
			elapsed := os.k.now - f.start
			os.EndDelay(os.k.now, t, elapsed)
			f.remaining -= elapsed
			f.pc = 10
			if preempted && f.remaining > 0 {
				return m.callYield(os)
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
				return m.tailYield(os)
			}
			return statDone
		default:
			return statDone
		}
	}
}

// fEventWait is core's EventWait on an OS event object.
type fEventWait struct {
	os *osState
	e  *core.OSEvent
}

func (f *fEventWait) step(m *machine) status {
	os := f.os
	t := os.mustCurrent(m)
	os.wake(m, os.WaitEvent(os.k.now, t, f.e))
	return m.tailWaitDispatched(os)
}

// fEventNotify is core's EventNotify: wake every queued waiter (a
// notification with no waiters is lost) and re-evaluate scheduling.
type fEventNotify struct {
	os *osState
	e  *core.OSEvent
}

func (f *fEventNotify) step(m *machine) status {
	if f.os.NotifyEvent(f.os.k.now, f.e) {
		return m.tailDecide(f.os)
	}
	return statDone
}

// fSuspend is core's Suspend: park the current task in a waiting state
// until something resumes it.
type fSuspend struct {
	os   *osState
	ws   core.TaskState
	site string
}

func (f *fSuspend) step(m *machine) status {
	os := f.os
	t := os.mustCurrent(m)
	os.wake(m, os.BlockAt(os.k.now, t, f.ws, f.site))
	return m.tailWaitDispatched(os)
}

// fResume is core's Resume: make a suspended task ready again and
// re-evaluate scheduling. Safe from ISR machines.
type fResume struct {
	os *osState
	t  *core.Task
}

func (f *fResume) step(m *machine) status {
	if f.os.Wake(f.os.k.now, f.t) {
		return m.tailDecide(f.os)
	}
	return statDone
}
