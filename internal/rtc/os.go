package rtc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// polKind is the scheduling policy, re-encoded from core's Policy
// implementations (whose Less operates on *core.Task and therefore
// cannot be reused directly).
type polKind uint8

const (
	polPriority polKind = iota
	polFCFS
	polRR
	polEDF
	polRM
)

// policyByName mirrors core.PolicyByName's name set and errors so the
// engines reject configurations identically.
func policyByName(name string, quantum Time) (polKind, bool, Time, error) {
	switch name {
	case "priority", "prio", "":
		return polPriority, true, 0, nil
	case "fcfs", "fifo":
		return polFCFS, false, 0, nil
	case "rr", "roundrobin":
		if quantum <= 0 {
			return 0, false, 0, fmt.Errorf("rr policy needs a positive quantum")
		}
		return polRR, true, quantum, nil
	case "edf":
		return polEDF, true, 0, nil
	case "rm", "ratemonotonic":
		return polRM, true, 0, nil
	default:
		return 0, false, 0, fmt.Errorf("unknown policy %q", name)
	}
}

// task is the engine's task control block, a port of core.Task with
// machine bindings in place of process bindings.
type task struct {
	id     int
	name   string
	typ    core.TaskType
	period Time
	prio   int

	state core.TaskState
	mach  *machine

	dispatch event // flushed when the task is dispatched
	preempt  event // flushed to interrupt a segmented delay
	// waitBuf backs the two events' waiter lists: only the task's own
	// machine ever waits on them, so neither list outgrows its slot.
	waitBuf [2]*machine

	readySeq     int
	release      Time
	deadline     Time
	sliceUsed    Time
	lastWorkDone Time
	cpuTime      Time
	activations  int
	missed       int
	blockSite    string
	waitingRes   *resource // resource this task is blocked on (wait-for graph)
	msg          int64     // itron mailbox direct-handoff slot
}

// osState is the RTOS model ported to the run-to-completion engine: the
// same scheduler state, ready-queue discipline, accounting, and trace
// emission as core.OS, with each blocking service re-expressed as a
// resumable frame.
type osState struct {
	k    *kernel
	name string

	polKind    polKind
	preemptive bool
	quantum    Time
	tmodel     core.TimeModel

	tasks   []*task
	current *task
	lastRun *task
	ready   []*task // linear ready list (insertion order; pickBest scans)

	seq           int
	frontSeq      int
	frontReinsert bool

	started   bool
	startedAt Time

	idleSince  Time
	idleValid  bool
	delayStart Time
	delayValid bool

	stats    core.Stats
	progress uint64

	tracing bool
	recs    []trace.Record

	monitor   monitor
	diagnosis *core.DiagnosisError

	taskSlab slab[task]
}

// init prepares the OS state of PE name on kernel k for a build that
// creates tasks tasks: the control-block slab and the task and ready
// lists are sized for them (par forks grow them on demand).
func (os *osState) init(k *kernel, name string, tasks int) {
	os.k, os.name, os.tmodel = k, name, core.TimeModelCoarse
	os.monitor.os = os
	os.taskSlab.reserve(tasks)
	os.tasks = make([]*task, 0, tasks)
	os.ready = make([]*task, 0, tasks)
}

func (os *osState) newTask(name string, typ core.TaskType, period Time, prio int) *task {
	t := os.taskSlab.take()
	t.id, t.name, t.typ, t.period, t.prio = len(os.tasks), name, typ, period, prio
	t.state, t.deadline = core.TaskCreated, sim.Forever
	t.dispatch.waiters = t.waitBuf[0:0:1]
	t.preempt.waiters = t.waitBuf[1:1:2]
	os.tasks = append(os.tasks, t)
	return t
}

// less mirrors each core policy's Less exactly.
func (os *osState) less(a, b *task) bool {
	switch os.polKind {
	case polFCFS:
		return false
	case polEDF:
		if a.deadline != b.deadline {
			return a.deadline < b.deadline
		}
		return a.prio < b.prio
	default: // priority, rr, rm
		return a.prio < b.prio
	}
}

func (os *osState) slice() Time {
	if os.polKind == polRR {
		return os.quantum
	}
	return 0
}

// assignRM is core's assignRateMonotonic: periodic tasks by period,
// stable; aperiodic tasks keep their relative order after them. One
// stable sort ranks periodic before aperiodic, then periodic tasks by
// period and aperiodic ones by priority, which is the same order.
func (os *osState) assignRM() {
	order := slices.Clone(os.tasks)
	slices.SortStableFunc(order, func(a, b *task) int {
		ap, bp := a.typ == core.Periodic, b.typ == core.Periodic
		switch {
		case ap != bp:
			if ap {
				return -1
			}
			return 1
		case ap:
			return cmp.Compare(a.period, b.period)
		default:
			return cmp.Compare(a.prio, b.prio)
		}
	})
	for n, t := range order {
		t.prio = n
	}
}

func (os *osState) start() {
	if os.polKind == polRM {
		os.assignRM()
	}
	os.started = true
	os.startedAt = os.k.now
	os.idleSince = os.k.now
	os.idleValid = true
}

// --- ready queue (linear list; core indexes the same order in readyq) ---

// pickBest scans the ready list for the task the policy would dispatch:
// the winner under (less rank, readySeq). One specialized loop per
// policy family keeps the double less() call out of the scan; each loop
// replaces best exactly when less(t,best) || (!less(best,t) && seq<).
func (os *osState) pickBest() *task {
	var best *task
	switch os.polKind {
	case polFCFS:
		for _, t := range os.ready {
			if best == nil || t.readySeq < best.readySeq {
				best = t
			}
		}
	case polEDF:
		for _, t := range os.ready {
			switch {
			case best == nil:
				best = t
			case t.deadline != best.deadline:
				if t.deadline < best.deadline {
					best = t
				}
			case t.prio != best.prio:
				if t.prio < best.prio {
					best = t
				}
			case t.readySeq < best.readySeq:
				best = t
			}
		}
	default: // priority, rr, rm
		for _, t := range os.ready {
			switch {
			case best == nil:
				best = t
			case t.prio != best.prio:
				if t.prio < best.prio {
					best = t
				}
			case t.readySeq < best.readySeq:
				best = t
			}
		}
	}
	return best
}

func (os *osState) removeReady(t *task) {
	// Swap-remove: pickBest selects by (policy rank, readySeq), never by
	// queue position, so compaction order is unobservable.
	for i, r := range os.ready {
		if r == t {
			last := len(os.ready) - 1
			os.ready[i] = os.ready[last]
			os.ready = os.ready[:last]
			return
		}
	}
}

func (os *osState) makeReady(t *task) {
	if !t.state.Alive() {
		return
	}
	os.setState(t, core.TaskReady)
	os.seq++
	t.readySeq = os.seq
	os.ready = append(os.ready, t)
}

// makeReadyPreempted re-queues a preempted task ahead of equal-priority
// peers when the personality requires it (OSEK OS 2.2.3 §4.6.5).
func (os *osState) makeReadyPreempted(t *task) {
	if !os.frontReinsert {
		os.makeReady(t)
		return
	}
	if !t.state.Alive() {
		return
	}
	os.setState(t, core.TaskReady)
	os.frontSeq--
	t.readySeq = os.frontSeq
	os.ready = append(os.ready, t)
}

// --- trace emission (the recorder-attached observer path, inlined) ---

func (os *osState) setState(t *task, s core.TaskState) {
	if t.state == s {
		return
	}
	if !os.tracing {
		t.state = s
		return
	}
	old := t.state
	t.state = s
	os.recs = append(os.recs, trace.Record{
		At: os.k.now, Kind: trace.KindTaskState,
		Task: t.name, From: old.String(), To: s.String(),
	})
}

func (os *osState) emitDispatch(prev, next *task) {
	if !os.tracing {
		return
	}
	name := func(t *task) string {
		if t == nil {
			return "-"
		}
		return t.name
	}
	os.recs = append(os.recs, trace.Record{
		At: os.k.now, Kind: trace.KindDispatch,
		From: name(prev), To: name(next),
	})
}

func (os *osState) emitIRQ(name string, enter bool) {
	if !os.tracing {
		return
	}
	arg := int64(0)
	if enter {
		arg = 1
	}
	os.recs = append(os.recs, trace.Record{
		At: os.k.now, Kind: trace.KindIRQ, Label: name, Arg: arg,
	})
}

// --- dispatcher core (non-blocking halves of core.OS) ---

func (os *osState) dispatchBest(m *machine, prev *task) {
	next := os.pickBest()
	if next == nil {
		if !os.idleValid {
			os.idleSince = os.k.now
			os.idleValid = true
		}
		if prev != nil {
			os.emitDispatch(prev, nil)
		}
		return
	}
	os.removeReady(next)
	if os.idleValid {
		os.stats.IdleTime += os.k.now - os.idleSince
		os.idleValid = false
	}
	os.current = next
	next.sliceUsed = 0
	os.setState(next, core.TaskRunning)
	os.stats.Dispatches++
	os.progress++
	if os.lastRun != nil && os.lastRun != next {
		os.stats.ContextSwitches++
	}
	os.lastRun = next
	os.emitDispatch(prev, next)
	if next.mach != m {
		// Inlined flush of the dispatch event: its waiters are only ever
		// parked by fWaitDispatched, which never holds a timer or other
		// registrations, so the general wakeFromEvent cleanup is skipped.
		e := &next.dispatch
		if ws := e.waiters; len(ws) > 0 {
			e.waiters = ws[:0]
			for _, w := range ws {
				if w.state == mWaitEvent || w.state == mWaitTimeout {
					w.wokenBy = e
					w.timedOut = false
					w.state = mReady
					os.k.enqueueNext(w)
				}
			}
		}
	}
}

func (os *osState) releaseCPU(m *machine) {
	prev := os.current
	os.current = nil
	os.dispatchBest(m, prev)
}

func (os *osState) mustCurrent(m *machine) *task {
	t := os.current
	if t == nil || t.mach != m {
		os.badCurrent(m)
	}
	return t
}

// badCurrent keeps the panic's formatting out of mustCurrent so the
// latter inlines into every service frame.
func (os *osState) badCurrent(m *machine) {
	panic(fmt.Sprintf("rtc[%s]: machine %s ran an OS service while not dispatched", os.name, m.name))
}

// taskTerminate is core.OS.TaskTerminate — non-blocking, so a plain
// method rather than a frame; the caller's body frame returns after it.
func (os *osState) taskTerminate(m *machine) {
	t := os.mustCurrent(m)
	if t.typ == core.Aperiodic {
		t.activations++
	}
	os.setState(t, core.TaskTerminated)
	os.releaseCPU(m)
}

func (os *osState) recordDiagnosis(d *core.DiagnosisError) {
	if os.diagnosis == nil {
		os.diagnosis = d
	}
}

// checkConservation mirrors core.OS.CheckConservation: busy + idle
// (including in-flight intervals) must cover the whole run.
func (os *osState) checkConservation() error {
	if !os.started {
		return nil
	}
	busy := os.stats.BusyTime
	if os.delayValid {
		busy += os.k.now - os.delayStart
	}
	idle := os.stats.IdleTime
	if os.idleValid {
		idle += os.k.now - os.idleSince
	}
	total := os.k.now - os.startedAt
	if busy+idle+os.stats.OverheadTime != total {
		return fmt.Errorf("rtc[%s]: time conservation violated: busy %s + idle %s + overhead %s != elapsed %s",
			os.name, busy, idle, os.stats.OverheadTime, total)
	}
	return nil
}

// --- service frames ---

// call helpers: reset the machine's preallocated frame and push it.

func (m *machine) callWaitDispatched(t *task, os *osState) status {
	m.fWD = fWaitDispatched{os: os, t: t}
	return m.push(&m.fWD)
}

func (m *machine) callYield(t *task, os *osState) status {
	m.fY = fYieldCPU{os: os, t: t}
	return m.push(&m.fY)
}

func (m *machine) callDecide(os *osState) status {
	m.fDec = fDecideFrom{os: os}
	return m.push(&m.fDec)
}

// tail variants: replace the caller instead of pushing (see tailcall).

func (m *machine) tailWaitDispatched(t *task, os *osState) status {
	m.fWD = fWaitDispatched{os: os, t: t}
	return m.tailcall(&m.fWD)
}

func (m *machine) tailYield(t *task, os *osState) status {
	m.fY = fYieldCPU{os: os, t: t}
	return m.tailcall(&m.fY)
}

func (m *machine) tailDecide(os *osState) status {
	m.fDec = fDecideFrom{os: os}
	return m.tailcall(&m.fDec)
}

func (m *machine) tailEventNotify(e *osEvent, os *osState) status {
	m.fEN = fEventNotify{os: os, e: e}
	return m.tailcall(&m.fEN)
}

func (m *machine) tailResume(t *task, os *osState) status {
	m.fRes = fResume{os: os, t: t}
	return m.tailcall(&m.fRes)
}

func (m *machine) callActivate(t *task, os *osState) status {
	m.fAct = fActivate{os: os, t: t}
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

func (m *machine) callEventWait(e *osEvent, os *osState) status {
	m.fEW = fEventWait{os: os, e: e}
	return m.push(&m.fEW)
}

func (m *machine) callEventNotify(e *osEvent, os *osState) status {
	m.fEN = fEventNotify{os: os, e: e}
	return m.push(&m.fEN)
}

func (m *machine) callSuspend(ws core.TaskState, site string, os *osState) status {
	m.fSus = fSuspend{os: os, ws: ws, site: site}
	return m.push(&m.fSus)
}

func (m *machine) callResume(t *task, os *osState) status {
	m.fRes = fResume{os: os, t: t}
	return m.push(&m.fRes)
}

// fWaitDispatched is core's waitUntilDispatched predicate loop: wait on
// the task's dispatch event until the scheduler selects it.
type fWaitDispatched struct {
	os *osState
	t  *task
	pc int
}

func (f *fWaitDispatched) step(m *machine) status {
	if f.os.current != f.t {
		// A dispatch event's only waiter is ever this frame's machine, and
		// a machine parked here holds no timer and no other registrations —
		// so the m.waitEvents side of wait() (kept only to deregister from
		// *other* sources on wake) is skipped, and wakeFromEvent's cleanup
		// loop sees an empty list. Same wake order, same snapshot shape.
		f.pc = 1
		e := &f.t.dispatch
		e.waiters = append(e.waiters, m)
		m.state = mWaitEvent
		return statBlocked
	}
	return statDone
}

// fYieldCPU is core's yieldCPU: hand the CPU to a better task and wait
// to be re-dispatched.
type fYieldCPU struct {
	os *osState
	t  *task
}

func (f *fYieldCPU) step(m *machine) status {
	os := f.os
	os.stats.Preemptions++
	os.makeReadyPreempted(f.t)
	os.current = nil
	os.dispatchBest(m, f.t)
	return m.tailWaitDispatched(f.t, os)
}

// fDecideFrom is core's decideFrom: re-evaluate scheduling after a
// wakeup, preempting the running task if the policy demands it.
type fDecideFrom struct {
	os *osState
}

func (f *fDecideFrom) step(m *machine) status {
	os := f.os
	cur := os.current
	if cur == nil {
		os.dispatchBest(m, nil)
		return statDone
	}
	if cur.mach == m && os.preemptive {
		if best := os.pickBest(); best != nil && os.less(best, cur) {
			return m.tailYield(cur, os)
		}
		return statDone
	}
	// Foreign caller (or non-preemptive self, where both branches no-op):
	// under the segmented model, interrupt the running task's delay.
	if os.tmodel == core.TimeModelSegmented && os.preemptive {
		if best := os.pickBest(); best != nil && os.less(best, cur) {
			os.k.flush(&cur.preempt)
		}
	}
	return statDone
}

// fActivate is core's TaskActivate for the self-activation path the
// workloads use: bind, stamp the first release, enter the ready queue,
// let the delta cycle settle, then contend for the CPU.
type fActivate struct {
	os *osState
	t  *task
	pc int
}

func (f *fActivate) step(m *machine) status {
	os := f.os
	switch f.pc {
	case 0:
		t := f.t
		t.mach = m
		if t.typ == core.Periodic {
			t.release = os.k.now
			t.deadline = t.release + t.period
		}
		os.makeReady(t)
		f.pc = 1
		m.yieldDelta()
		return statBlocked
	case 1:
		f.pc = 2
		return m.callDecide(os)
	default:
		return m.tailWaitDispatched(f.t, os)
	}
}

// fEndCycle is core's TaskEndCycle: close the cycle's accounting,
// sleep until the next release, and contend for the CPU again.
type fEndCycle struct {
	os   *osState
	t    *task
	next Time
	pc   int
}

func (f *fEndCycle) step(m *machine) status {
	os := f.os
	switch f.pc {
	case 0:
		t := os.mustCurrent(m)
		f.t = t
		now := os.k.now
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
		os.setState(t, core.TaskWaitingPeriod)
		os.releaseCPU(m)
		f.next = next
		f.pc = 1
		if next > now {
			m.sleep(next - now)
			return statBlocked
		}
		return statCall // no child pushed; loop re-steps at pc 1
	case 1:
		t := f.t
		t.release = f.next
		t.deadline = f.next + t.period
		os.makeReady(t)
		f.pc = 2
		m.yieldDelta()
		return statBlocked
	case 2:
		f.pc = 3
		return m.callDecide(os)
	default:
		return m.tailWaitDispatched(f.t, os)
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
			if sl := os.slice(); sl > 0 && t.sliceUsed >= sl {
				t.sliceUsed = 0
				if b := os.pickBest(); b != nil && !os.less(t, b) {
					return m.callYield(t, os)
				}
			}
		case 1:
			if os.tmodel == core.TimeModelSegmented {
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
			os.setState(t, core.TaskWaitingTime)
			f.start = os.k.now
			os.delayStart = f.start
			os.delayValid = true
			f.pc = 11
			m.waitTimeout(&t.preempt, f.remaining)
			return statBlocked
		case 11: // segment ended (timer) or interrupted (preempt event)
			m.afterWait()
			preempted := !m.timedOut
			os.delayValid = false
			elapsed := os.k.now - f.start
			t.cpuTime += elapsed
			t.sliceUsed += elapsed
			t.lastWorkDone = os.k.now
			os.stats.BusyTime += elapsed
			f.remaining -= elapsed
			os.setState(t, core.TaskRunning)
			f.pc = 10
			if preempted && f.remaining > 0 {
				return m.callYield(t, os)
			}
		case 20: // coarse: one non-preemptible delay
			os.setState(t, core.TaskWaitingTime)
			os.delayStart = os.k.now
			os.delayValid = true
			f.pc = 21
			m.sleep(f.d)
			return statBlocked
		case 21:
			os.delayValid = false
			t.cpuTime += f.d
			t.sliceUsed += f.d
			t.lastWorkDone = os.k.now
			os.stats.BusyTime += f.d
			os.setState(t, core.TaskRunning)
			f.pc = 30
		case 30: // maybePreempt
			if os.preemptive {
				if best := os.pickBest(); best != nil && os.less(best, t) {
					return m.tailYield(t, os)
				}
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
	e  *osEvent
}

func (f *fEventWait) step(m *machine) status {
	os := f.os
	t := os.mustCurrent(m)
	f.e.queue = append(f.e.queue, t)
	t.blockSite = f.e.site
	os.setState(t, core.TaskWaitingEvent)
	os.releaseCPU(m)
	return m.tailWaitDispatched(t, os)
}

// fEventNotify is core's EventNotify: wake every queued waiter (a
// notification with no waiters is lost) and re-evaluate scheduling.
type fEventNotify struct {
	os *osState
	e  *osEvent
}

func (f *fEventNotify) step(m *machine) status {
	os := f.os
	if len(f.e.queue) == 0 {
		return statDone
	}
	woken := f.e.queue
	f.e.queue = f.e.queue[:0]
	for _, t := range woken {
		os.makeReady(t)
	}
	return m.tailDecide(os)
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
	t.blockSite = f.site
	os.setState(t, f.ws)
	os.releaseCPU(m)
	return m.tailWaitDispatched(t, os)
}

// fResume is core's Resume: make a suspended task ready again and
// re-evaluate scheduling. Safe from ISR machines.
type fResume struct {
	os *osState
	t  *task
}

func (f *fResume) step(m *machine) status {
	os := f.os
	t := f.t
	if t == os.current || !t.state.Alive() {
		return statDone
	}
	switch t.state {
	case core.TaskWaitingEvent, core.TaskWaitingMutex, core.TaskWaitingTime, core.TaskSuspended:
		os.makeReady(t)
		return m.tailDecide(os)
	}
	return statDone
}

// osEvent is core's Event object: a named FIFO wait queue over tasks,
// used by the generic personality's condition variables.
type osEvent struct {
	name  string
	site  string
	queue []*task
}

func (os *osState) newOSEvent(name string) *osEvent {
	return &osEvent{name: name, site: "event:" + name}
}
