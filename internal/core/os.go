package core

import (
	"fmt"
	"sort"

	"repro/internal/readyq"
	"repro/internal/sim"
)

// TimeModel selects how TimeWait interacts with preemption.
type TimeModel int

const (
	// TimeModelCoarse is the paper's model: a modeled delay always runs to
	// the end of its discrete time step; a preemption request raised in
	// the meantime (e.g. by an interrupt releasing a higher-priority task)
	// takes effect only when the delay completes (Figure 8's t4 → t4').
	// Preemption accuracy is therefore limited by the granularity of the
	// delay annotations (paper, Section 4.3).
	TimeModelCoarse TimeModel = iota
	// TimeModelSegmented is an extension: TimeWait is interruptible, the
	// preempted task is charged only for the execution time it actually
	// consumed and resumes the remainder of its delay when re-dispatched.
	// This models an ideally preemptive CPU independent of annotation
	// granularity and is used by the granularity ablation (DESIGN.md,
	// experiment F8-PREC).
	TimeModelSegmented
)

// String returns "coarse" or "segmented".
func (m TimeModel) String() string {
	if m == TimeModelSegmented {
		return "segmented"
	}
	return "coarse"
}

// Observer receives RTOS-level scheduling events; the trace package
// adapts this interface onto its recorder. All callbacks run synchronously
// inside the simulation, so implementations must not block.
type Observer interface {
	// OnTaskState fires on every task state transition.
	OnTaskState(at sim.Time, t *Task, old, new TaskState)
	// OnDispatch fires when the CPU is handed over; prev and/or next may
	// be nil (idle).
	OnDispatch(at sim.Time, prev, next *Task)
	// OnIRQ fires on InterruptEnter (enter=true) and InterruptReturn.
	OnIRQ(at sim.Time, name string, enter bool)
}

// BlockReason classifies the waiting state a task enters when it gives up
// the CPU (reported by ObserverExt.OnBlock/OnUnblock).
type BlockReason uint8

const (
	// BlockNone: the transition is not a blocking one.
	BlockNone BlockReason = iota
	// BlockEvent: blocked in EventWait.
	BlockEvent
	// BlockMutex: blocked in Mutex.Lock.
	BlockMutex
	// BlockChildren: suspended between ParStart and ParEnd.
	BlockChildren
	// BlockPeriod: a periodic task waiting for its next release.
	BlockPeriod
	// BlockSleep: suspended by TaskSleep until re-activation.
	BlockSleep
)

// String returns a short lower-case reason name.
func (r BlockReason) String() string {
	switch r {
	case BlockEvent:
		return "event"
	case BlockMutex:
		return "mutex"
	case BlockChildren:
		return "children"
	case BlockPeriod:
		return "period"
	case BlockSleep:
		return "sleep"
	default:
		return "none"
	}
}

// blockReasonFor maps a waiting state onto its BlockReason (BlockNone for
// non-waiting states; TaskWaitingTime is modeled execution, not blocking).
func blockReasonFor(s TaskState) BlockReason {
	switch s {
	case TaskWaitingEvent:
		return BlockEvent
	case TaskWaitingMutex:
		return BlockMutex
	case TaskWaitingChildren:
		return BlockChildren
	case TaskWaitingPeriod:
		return BlockPeriod
	case TaskSuspended:
		return BlockSleep
	default:
		return BlockNone
	}
}

// ObserverExt extends Observer with the remaining scheduler lifecycle
// edges, so that a complete event stream — every job release, preemption,
// block/unblock with reason, and ready-queue change — can be reconstructed
// without polling Stats. The telemetry layer (internal/telemetry) is the
// primary consumer. Observers registered via Observe that also implement
// ObserverExt receive these callbacks automatically.
type ObserverExt interface {
	Observer
	// OnRelease fires when a new job of t arrives: first activation, a
	// periodic task's next release, or re-activation after TaskSleep. The
	// callback instant is the job's release time.
	OnRelease(at sim.Time, t *Task)
	// OnPreempt fires when t involuntarily loses the CPU (a preferred
	// task became ready, or its round-robin slice expired). by is the
	// best ready task at that instant and may be nil.
	OnPreempt(at sim.Time, t *Task, by *Task)
	// OnBlock fires when t leaves the CPU for a waiting state.
	OnBlock(at sim.Time, t *Task, reason BlockReason)
	// OnUnblock fires when t re-enters the ready queue from a waiting
	// state, with the reason it had been waiting.
	OnUnblock(at sim.Time, t *Task, reason BlockReason)
	// OnReadyQueue fires whenever the ready-queue length changes.
	OnReadyQueue(at sim.Time, n int)
}

// Stats aggregates the counters the paper's Table 1 reports (context
// switches) plus supporting metrics.
//
// BusyTime, IdleTime and OverheadTime partition the wall-clock span of the
// scheduler: from Start to any later instant, BusyTime + IdleTime +
// OverheadTime equals the elapsed simulated time (CheckConservation
// asserts exactly this).
type Stats struct {
	Dispatches      uint64   // CPU handovers to a task
	ContextSwitches uint64   // handovers to a different task than last ran
	Preemptions     uint64   // involuntary CPU losses of a running task
	IRQs            uint64   // InterruptReturn count
	IdleTime        sim.Time // accumulated time with no task on the CPU
	BusyTime        sim.Time // accumulated modeled execution time (all tasks)
	OverheadTime    sim.Time // accumulated context-switch overhead (ctxCost)
}

// OS is one processing element's instance of the abstract RTOS model —
// the paper's "RTOS model channel". All methods taking a *sim.Proc must be
// passed the calling simulation process; task-management and event calls
// other than notifications must be made by the task currently holding the
// CPU, exactly as application code calls into a real RTOS kernel.
type OS struct {
	k      *sim.Kernel
	name   string
	policy Policy
	tmodel TimeModel

	// ContextSwitchCost, if non-zero, adds a modeled kernel overhead delay
	// to every context switch (an extension over the paper's zero-cost
	// switches; exercised by the overhead ablation).
	ctxCost sim.Time

	started bool
	tasks   []*Task
	current *Task
	lastRun *Task

	// Ready queue, indexed by Policy.Rank: priority buckets + intrusive
	// FIFO lists, O(1) dispatch.
	rq *readyq.Queue[*Task]

	seq int // ready-queue FIFO sequence source

	// OSEK-conformant preemption re-insertion: a preempted task re-enters
	// its priority level as the oldest ready task, not the newest. The
	// front counter runs downward so front re-inserts order before every
	// normal arrival under the unchanged ascending-seq dispatch order.
	frontReinsert bool
	frontSeq      int // decrementing seq source for front re-inserts

	idleSince sim.Time
	idleValid bool

	startedAt sim.Time // Start() instant; origin of the conservation span

	// In-flight accounting: a modeled delay (or context-switch overhead)
	// whose time has partially elapsed but is not yet credited to the
	// stats. CheckConservation adds these so it can be called while the
	// simulation is paused mid-delay (e.g. at a RunUntil horizon).
	delayStart sim.Time
	delayValid bool
	ovhStart   sim.Time
	ovhValid   bool

	stats     Stats
	observers []Observer
	extObs    []ObserverExt

	// Runtime diagnosis (see diagnosis.go): the wait-for-graph monitor is
	// always armed; the watchdog daemon is opt-in.
	monitor    *Monitor
	diagnosis  *DiagnosisError
	progress   uint64 // dispatch stamp consumed by the watchdog
	watchdogOn bool
}

// Option configures an OS at construction.
type Option func(*OS)

// WithTimeModel selects the TimeWait preemption model (default
// TimeModelCoarse, the paper's model).
func WithTimeModel(m TimeModel) Option { return func(o *OS) { o.tmodel = m } }

// WithContextSwitchCost models a fixed kernel overhead per context switch.
func WithContextSwitchCost(d sim.Time) Option { return func(o *OS) { o.ctxCost = d } }

// New creates an RTOS model instance named name (typically the PE name) on
// kernel k with the given scheduling policy.
func New(k *sim.Kernel, name string, policy Policy, opts ...Option) *OS {
	os := &OS{k: k, name: name, policy: policy, tmodel: TimeModelCoarse}
	for _, opt := range opts {
		opt(os)
	}
	os.Init()
	// When the simulation kernel is about to give up with a generic
	// deadlock, translate the blockage into a wait-for-graph diagnosis
	// (exact cycle, task names, blocking sites) and fail with that instead.
	k.OnStall(func(at sim.Time, live []*sim.Proc) error {
		if d := os.diagnoseStall(); d != nil {
			os.recordDiagnosis(d)
			return d
		}
		return nil
	})
	return os
}

// Name returns the instance name.
func (os *OS) Name() string { return os.name }

// Kernel returns the underlying simulation kernel.
func (os *OS) Kernel() *sim.Kernel { return os.k }

// Policy returns the active scheduling policy.
func (os *OS) Policy() Policy { return os.policy }

// TimeModelUsed returns the active time model.
func (os *OS) TimeModelUsed() TimeModel { return os.tmodel }

// Current returns the task currently holding the CPU (nil if idle).
func (os *OS) Current() *Task { return os.current }

// Tasks returns all tasks ever created on this instance.
func (os *OS) Tasks() []*Task { return os.tasks }

// StatsSnapshot returns a copy of the accumulated counters.
func (os *OS) StatsSnapshot() Stats { return os.stats }

// Observe registers an observer for scheduling events. Observers that
// also implement ObserverExt additionally receive the extended lifecycle
// callbacks.
func (os *OS) Observe(o Observer) {
	os.observers = append(os.observers, o)
	if e, ok := o.(ObserverExt); ok {
		os.extObs = append(os.extObs, e)
	}
}

// Init (re)initializes the kernel data structures (paper: init). New calls
// it implicitly; calling it again discards all tasks and counters.
func (os *OS) Init() {
	os.started = false
	os.tasks = nil
	if os.rq == nil {
		os.rq = readyq.New(taskLinks)
	} else {
		os.rq.Clear()
	}
	os.current = nil
	os.lastRun = nil
	os.seq = 0
	os.frontSeq = 0
	os.stats = Stats{}
	os.idleValid = false
	os.delayValid = false
	os.ovhValid = false
	os.startedAt = 0
	os.monitor = newMonitor(os)
	os.diagnosis = nil
	os.progress = 0
}

// Start begins multi-task scheduling (paper: start(sched_alg)). If policy
// is non-nil it replaces the instance's policy. Under RMPolicy, Start
// derives rate-monotonic priorities for all tasks created so far.
func (os *OS) Start(policy Policy) {
	if policy != nil {
		os.policy = policy
	}
	if _, ok := os.policy.(RMPolicy); ok {
		assignRateMonotonic(os.tasks)
	}
	// The policy (and, under RM, every priority) may have changed; re-key
	// any task already sitting in the ready queue.
	os.rebuildReady()
	os.started = true
	os.startedAt = os.k.Now()
	os.idleSince = os.k.Now()
	os.idleValid = true
}

// TaskCreate allocates a task control block (paper: task_create). For
// periodic tasks, period must be positive; wcet is an informational
// execution-time budget. The task is bound to its simulation process by
// its first TaskActivate call.
func (os *OS) TaskCreate(name string, typ TaskType, period, wcet sim.Time, prio int) *Task {
	if typ == Periodic && period <= 0 {
		panic(fmt.Sprintf("core: periodic task %q needs positive period", name))
	}
	t := &Task{
		os:       os,
		id:       len(os.tasks),
		name:     name,
		typ:      typ,
		period:   period,
		wcet:     wcet,
		prio:     prio,
		state:    TaskCreated,
		dispatch: os.k.NewEvent(name + ".dispatch"),
		preempt:  os.k.NewEvent(name + ".preempt"),
		deadline: sim.Forever,
	}
	os.tasks = append(os.tasks, t)
	return t
}

// TaskActivate makes a task runnable (paper: task_activate).
//
// Called by the task's own (not yet bound) process, it binds the process
// to the task, enters the ready queue and blocks until the dispatcher
// hands the task the CPU — this is the call at the top of every task body
// (paper Figure 5). Called by the running task on another, suspended or
// created task, it moves that task to the ready queue and triggers a
// scheduling decision, which may preempt the caller.
func (os *OS) TaskActivate(p *sim.Proc, t *Task) {
	if t.proc == nil || t.proc == p {
		// Self-activation: bind and contend for the CPU. The delta-cycle
		// yield lets all tasks activating at the same instant (e.g. the
		// children of one par fork) enter the ready queue before the
		// dispatch decision, so the policy — not activation order — picks
		// the first runner, as in the paper's Figure 8(b).
		t.proc = p
		if t.typ == Periodic {
			t.release = os.k.Now()
			t.deadline = t.release + t.period
		}
		os.makeReady(t)
		p.YieldDelta()
		os.decideFrom(p)
		os.waitUntilDispatched(p, t)
		return
	}
	// Activation of another task by the running task (or an ISR).
	switch t.state {
	case TaskSuspended, TaskCreated:
		if t.typ == Periodic {
			t.release = os.k.Now()
			t.deadline = t.release + t.period
		}
		os.makeReady(t)
		os.decideFrom(p)
	}
}

// TaskTerminate ends the calling task (paper: task_terminate). The task's
// process continues executing (it is expected to return shortly after);
// the CPU is handed to the next ready task.
func (os *OS) TaskTerminate(p *sim.Proc) {
	t := os.mustCurrent(p, "TaskTerminate")
	if t.typ == Aperiodic {
		t.activations++
	}
	os.setState(t, TaskTerminated)
	os.releaseCPU(p)
}

// TaskSleep suspends the calling task until another task activates it
// (paper: task_sleep).
func (os *OS) TaskSleep(p *sim.Proc) {
	t := os.mustCurrent(p, "TaskSleep")
	os.setState(t, TaskSuspended)
	os.releaseCPU(p)
	os.waitUntilDispatched(p, t)
}

// TaskKill forcibly terminates another task (paper: task_kill): it is
// removed from all OS queues and its simulation process is unwound.
// Killing the running task is equivalent to TaskTerminate of the caller.
func (os *OS) TaskKill(p *sim.Proc, t *Task) {
	if !t.state.Alive() {
		return
	}
	if t == os.current {
		os.setState(t, TaskKilled)
		os.releaseCPU(p)
		p.Kill(t.proc) // unwinds the caller
		return
	}
	os.removeReady(t)
	os.setState(t, TaskKilled)
	if t.proc != nil {
		p.Kill(t.proc)
	}
}

// TaskEndCycle finishes the current cycle of a periodic task (paper:
// task_endcycle): the task gives up the CPU and blocks until its next
// release, then contends for the CPU again. Deadline misses (completion
// after the current absolute deadline) are recorded.
func (os *OS) TaskEndCycle(p *sim.Proc) {
	t := os.mustCurrent(p, "TaskEndCycle")
	if t.typ != Periodic {
		panic(fmt.Sprintf("core: TaskEndCycle on aperiodic task %q", t.name))
	}
	now := os.k.Now()
	// The cycle's work completed when its last modeled delay finished —
	// the task may reach this call later if it was preempted right at the
	// end of that delay. A cycle with no TimeWait completes at its release.
	completion := t.lastWorkDone
	if completion < t.release {
		completion = t.release
	}
	if completion > t.deadline {
		t.missed++
	}
	t.activations++
	// Advance to the next release after the completed work (periods fully
	// overrun by the work are skipped and each counts as missed).
	next := t.release + t.period
	for next+t.period <= completion {
		next += t.period
		t.missed++
	}
	os.setState(t, TaskWaitingPeriod)
	os.releaseCPU(p)
	if next > now {
		p.WaitFor(next - now)
	}
	t.release = next
	t.deadline = next + t.period
	os.makeReady(t)
	// Delta-cycle yield: simultaneous periodic releases all enter the
	// ready queue before any of them is dispatched (see TaskActivate).
	p.YieldDelta()
	os.decideFrom(p)
	os.waitUntilDispatched(p, t)
}

// ParStart suspends the calling task before it forks child tasks with the
// SLDL par statement (paper: par_start). The caller's process then
// executes sim.Proc.Par; the children activate themselves as tasks.
func (os *OS) ParStart(p *sim.Proc) *Task {
	t := os.mustCurrent(p, "ParStart")
	os.setState(t, TaskWaitingChildren)
	os.releaseCPU(p)
	return t
}

// ParEnd resumes the calling task after its par statement joined (paper:
// par_end): the task re-enters the ready queue and blocks until
// re-dispatched.
func (os *OS) ParEnd(p *sim.Proc, t *Task) {
	if t.state != TaskWaitingChildren {
		panic(fmt.Sprintf("core: ParEnd on task %q in state %s", t.name, t.state))
	}
	os.makeReady(t)
	os.decideFrom(p)
	os.waitUntilDispatched(p, t)
}

// TimeWait models execution time d of the calling task (paper: time_wait,
// the replacement for SLDL waitfor). It is the scheduling point at which
// preemption takes effect; see TimeModel for the two supported semantics.
func (os *OS) TimeWait(p *sim.Proc, d sim.Time) {
	t := os.mustCurrent(p, "TimeWait")
	if d < 0 {
		panic(fmt.Sprintf("core: negative TimeWait %v by %q", d, t.name))
	}
	// Scheduling point on entry: an expired round-robin slice rotates the
	// ready queue before more execution time is consumed. Checking here —
	// not after the delay — means a task whose quantum expires exactly as
	// its work completes blocks normally (TaskEndCycle, TaskTerminate)
	// instead of suffering a spurious preemption plus a second rotation,
	// and the rotation only happens when an equal-or-better ready task
	// exists to take the slice.
	if sl := os.policy.Slice(); sl > 0 && t.sliceUsed >= sl && !t.nonpreempt {
		t.sliceUsed = 0
		if b := os.pickBest(); b != nil && !os.policy.Less(t, b) {
			os.yieldCPU(p, t)
		}
	}
	switch os.tmodel {
	case TimeModelSegmented:
		os.timeWaitSegmented(p, t, d)
	default:
		os.timeWaitCoarse(p, t, d)
	}
	os.maybePreempt(p, t)
}

// timeWaitCoarse lets the delay run to completion before re-scheduling
// (the paper's model).
func (os *OS) timeWaitCoarse(p *sim.Proc, t *Task, d sim.Time) {
	os.setState(t, TaskWaitingTime)
	os.delayStart = os.k.Now()
	os.delayValid = true
	p.WaitFor(d)
	os.delayValid = false
	t.cpuTime += d
	t.sliceUsed += d
	t.lastWorkDone = os.k.Now()
	os.stats.BusyTime += d
	os.setState(t, TaskRunning)
}

// timeWaitSegmented makes the delay interruptible: a preemption request
// aborts the wait, the task yields, and the remaining execution time is
// consumed after re-dispatch.
func (os *OS) timeWaitSegmented(p *sim.Proc, t *Task, d sim.Time) {
	remaining := d
	for remaining > 0 {
		os.setState(t, TaskWaitingTime)
		start := os.k.Now()
		os.delayStart = start
		os.delayValid = true
		preempted := p.WaitTimeout(t.preempt, remaining)
		os.delayValid = false
		elapsed := os.k.Now() - start
		t.cpuTime += elapsed
		t.sliceUsed += elapsed
		t.lastWorkDone = os.k.Now()
		os.stats.BusyTime += elapsed
		remaining -= elapsed
		os.setState(t, TaskRunning)
		if preempted && remaining > 0 {
			os.yieldCPU(p, t)
		}
	}
}

// CheckConservation verifies the scheduler's time accounting at the
// current simulation instant: since Start, every unit of simulated time
// must be attributed to exactly one of modeled task execution (BusyTime),
// an empty ready queue (IdleTime) or context-switch overhead
// (OverheadTime). A modeled delay (or overhead) still in flight — e.g.
// when the simulation was paused at a RunUntil horizon mid-TimeWait — is
// counted up to the current instant. A non-nil error indicates a
// scheduler accounting bug, never an application error. Calling it before
// Start returns nil.
func (os *OS) CheckConservation() error {
	if !os.started {
		return nil
	}
	now := os.k.Now()
	span := now - os.startedAt
	busy := os.stats.BusyTime
	if os.delayValid {
		busy += now - os.delayStart
	}
	idle := os.stats.IdleTime
	if os.idleValid {
		idle += now - os.idleSince
	}
	ovh := os.stats.OverheadTime
	if os.ovhValid {
		ovh += now - os.ovhStart
	}
	if busy+idle+ovh != span {
		return fmt.Errorf(
			"core[%s]: time conservation violated at %v: busy %v + idle %v + overhead %v = %v, want span %v (start %v)",
			os.name, now, busy, idle, ovh, busy+idle+ovh, span, os.startedAt)
	}
	return nil
}

// EventNew allocates an RTOS event (paper: event_new).
func (os *OS) EventNew(name string) *OSEvent {
	return &OSEvent{os: os, name: name, site: "event:" + name}
}

// EventDel deletes an RTOS event (paper: event_del). Tasks still blocked
// on the event are left blocked forever; deleting an event in use is an
// application error, matching real RTOS semantics.
func (os *OS) EventDel(e *OSEvent) {
	e.queue = nil
	e.deleted = true
}

// EventWait blocks the calling task until the event is notified (paper:
// event_wait, the replacement for SLDL wait).
func (os *OS) EventWait(p *sim.Proc, e *OSEvent) {
	t := os.mustCurrent(p, "EventWait")
	if e.deleted {
		panic(fmt.Sprintf("core: EventWait on deleted event %q", e.name))
	}
	e.queue = append(e.queue, t)
	t.blockSite = e.site
	os.setState(t, TaskWaitingEvent)
	os.releaseCPU(p)
	os.waitUntilDispatched(p, t)
}

// EventNotify wakes every task blocked on the event (paper: event_notify,
// the replacement for SLDL notify) and triggers a scheduling decision.
// It may be called by the running task or by an interrupt handler.
func (os *OS) EventNotify(p *sim.Proc, e *OSEvent) {
	if len(e.queue) == 0 {
		return // no waiters: lost, like the SLDL primitive it models
	}
	// Reslice rather than nil out so steady-state wait/notify cycles reuse
	// the queue's backing array instead of reallocating it. Safe: nothing
	// re-enters EventWait (the only appender) while the wake loop runs —
	// the woken tasks only become ready here; they execute later.
	woken := e.queue
	e.queue = e.queue[:0]
	for _, t := range woken {
		os.makeReady(t)
	}
	os.decideFrom(p)
}

// InterruptEnter marks the begin of an interrupt service routine for
// bookkeeping and tracing. ISRs execute as plain SLDL processes above the
// RTOS model (the paper generates them inside bus drivers); they may call
// EventNotify and TaskActivate but must not block on RTOS services.
func (os *OS) InterruptEnter(p *sim.Proc, name string) {
	os.emitIRQ(name, true)
}

// InterruptReturn notifies the RTOS kernel at the end of an interrupt
// service routine (paper: interrupt_return) and triggers a scheduling
// decision for any tasks the ISR released.
func (os *OS) InterruptReturn(p *sim.Proc, name string) {
	os.stats.IRQs++
	os.emitIRQ(name, false)
	os.decideFrom(p)
}

// OSEvent is an RTOS-level synchronization event with a task wait queue
// (the paper's evt type).
type OSEvent struct {
	os      *OS
	name    string
	site    string // "event:<name>", precomputed for the EventWait hot path
	queue   []*Task
	deleted bool
}

// Name returns the event's diagnostic name.
func (e *OSEvent) Name() string { return e.name }

// ---------------------------------------------------------------------------
// Dispatcher internals.

// mustCurrent asserts the calling process is the running task.
func (os *OS) mustCurrent(p *sim.Proc, op string) *Task {
	t := os.current
	if t == nil || t.proc != p {
		cur := "idle"
		if t != nil {
			cur = t.name
		}
		panic(fmt.Sprintf("core[%s]: %s called by process %q but running task is %s",
			os.name, op, p.Name(), cur))
	}
	return t
}

// setState transitions a task and notifies observers, including the
// extended lifecycle edges derived from the transition: entering a
// waiting state is a block, leaving one for the ready queue is an
// unblock, and becoming ready from created/end-of-period/suspended marks
// a new job release.
func (os *OS) setState(t *Task, s TaskState) {
	if t.state == s {
		return
	}
	// Fast path: with no observer attached the transition is a bare field
	// write — no time lookup, no reason classification, no event
	// construction (extObs is always a subset of observers).
	if len(os.observers) == 0 {
		t.state = s
		return
	}
	old := t.state
	t.state = s
	now := os.k.Now()
	for _, o := range os.observers {
		o.OnTaskState(now, t, old, s)
	}
	if len(os.extObs) == 0 {
		return
	}
	if r := blockReasonFor(s); r != BlockNone {
		for _, o := range os.extObs {
			o.OnBlock(now, t, r)
		}
	}
	if s == TaskReady {
		if r := blockReasonFor(old); r != BlockNone {
			for _, o := range os.extObs {
				o.OnUnblock(now, t, r)
			}
		}
		if old == TaskCreated || old == TaskWaitingPeriod || old == TaskSuspended {
			for _, o := range os.extObs {
				o.OnRelease(now, t)
			}
		}
	}
}

// taskLinks is the intrusive-links accessor for the indexed ready queue.
func taskLinks(t *Task) *readyq.Links[*Task] { return &t.rq }

// SetPreemptFrontReinsert selects where a preempted task re-enters its
// priority level: at the back, as the newest ready task (the default,
// the paper's plain FIFO tie-break), or at the front, as the oldest —
// the ordering OSEK OS 2.2.3 §4.6.5 mandates ("a preempted task is
// considered to be the first (oldest) task in the ready list of its
// current priority"). The OSEK personality enables it; other
// personalities keep the default. Voluntary waits and fresh activations
// always enqueue at the back in either mode.
func (os *OS) SetPreemptFrontReinsert(on bool) {
	os.frontReinsert = on
}

// pushReady inserts an already-sequenced ready task into the ready
// queue.
func (os *OS) pushReady(t *Task) {
	os.rq.Push(t, os.policy.Rank(t), t.readySeq)
}

// rekeyReady re-ranks t after a scheduling attribute changed (priority
// boost/restore, deadline override) so the ready queue stays consistent
// with Less. A no-op when t is not queued.
func (os *OS) rekeyReady(t *Task) {
	os.rq.Update(t, os.policy.Rank(t))
}

// rebuildReady re-keys all queued tasks under the current policy,
// preserving FIFO arrival order.
func (os *OS) rebuildReady() {
	n := os.rq.Len()
	if n == 0 {
		return
	}
	queued := make([]*Task, 0, n)
	os.rq.Do(func(t *Task) { queued = append(queued, t) })
	os.rq.Clear()
	sort.Slice(queued, func(i, j int) bool { return queued[i].readySeq < queued[j].readySeq })
	for _, t := range queued {
		os.pushReady(t)
	}
}

// makeReady inserts t into the ready queue.
func (os *OS) makeReady(t *Task) {
	if !t.state.Alive() {
		return
	}
	os.setState(t, TaskReady)
	os.seq++
	t.readySeq = os.seq
	os.pushReady(t)
	os.emitReadyQueue()
}

// makeReadyPreempted re-inserts a task that lost the CPU involuntarily.
// Default mode is identical to makeReady (re-enter as newest); under
// SetPreemptFrontReinsert the task re-enters as the oldest of its rank,
// drawing its seq from the decrementing front counter so the front-push
// and the seq order of a later rebuildReady agree.
func (os *OS) makeReadyPreempted(t *Task) {
	if !os.frontReinsert {
		os.makeReady(t)
		return
	}
	if !t.state.Alive() {
		return
	}
	os.setState(t, TaskReady)
	os.frontSeq--
	t.readySeq = os.frontSeq
	os.rq.PushFront(t, os.policy.Rank(t), t.readySeq)
	os.emitReadyQueue()
}

// removeReady drops t from the ready queue if present.
func (os *OS) removeReady(t *Task) {
	if os.rq.Remove(t) {
		os.emitReadyQueue()
	}
}

// pickBest returns the ready task that orders first under the policy with
// FIFO tie-break, without removing it.
func (os *OS) pickBest() *Task { return os.rq.Min() }

// releaseCPU detaches the running task from the CPU (its state must
// already be set to the blocking state) and dispatches the next ready
// task, if any.
func (os *OS) releaseCPU(p *sim.Proc) {
	prev := os.current
	os.current = nil
	os.dispatchBest(p, prev)
}

// yieldCPU moves the running task back to the ready queue (involuntary
// preemption or slice expiry), dispatches the best ready task and blocks
// until the caller is re-dispatched.
func (os *OS) yieldCPU(p *sim.Proc, t *Task) {
	os.stats.Preemptions++
	if len(os.extObs) > 0 {
		by := os.pickBest() // the caller is not in the queue yet
		for _, o := range os.extObs {
			o.OnPreempt(os.k.Now(), t, by)
		}
	}
	os.makeReadyPreempted(t)
	os.current = nil
	os.dispatchBest(p, t)
	os.waitUntilDispatched(p, t)
}

// maybePreempt is the post-TimeWait scheduling point: if a strictly
// preferred task became ready while the delay elapsed, the caller yields.
func (os *OS) maybePreempt(p *sim.Proc, t *Task) {
	if !os.policy.Preemptive() || t.nonpreempt {
		return
	}
	best := os.pickBest()
	if best != nil && os.policy.Less(best, t) {
		os.yieldCPU(p, t)
	}
}

// decideFrom performs a scheduling decision from an arbitrary context:
// the running task (which may lose the CPU), an ISR, or an unbound task
// process releasing itself.
func (os *OS) decideFrom(p *sim.Proc) {
	if os.current == nil {
		os.dispatchBest(p, nil)
		return
	}
	if os.current.proc == p && os.policy.Preemptive() {
		if os.current.nonpreempt {
			return
		}
		best := os.pickBest()
		if best != nil && os.policy.Less(best, os.current) {
			os.yieldCPU(p, os.current)
		}
		return
	}
	// Caller is an ISR or a foreign process. In the segmented time model a
	// preferred ready task preempts the running task mid-delay; in the
	// coarse model the switch happens at the running task's next
	// scheduling point (paper Figure 8: t4 → t4').
	if os.tmodel == TimeModelSegmented && os.policy.Preemptive() && !os.current.nonpreempt {
		best := os.pickBest()
		if best != nil && os.policy.Less(best, os.current) {
			p.Notify(os.current.preempt)
		}
	}
}

// dispatchBest hands the CPU to the best ready task, if any. prev is the
// task that last held the CPU (for context-switch accounting and
// observers).
func (os *OS) dispatchBest(p *sim.Proc, prev *Task) {
	next := os.pickBest()
	if next == nil {
		if !os.idleValid {
			os.idleSince = os.k.Now()
			os.idleValid = true
		}
		if prev != nil {
			os.emitDispatch(prev, nil)
		}
		return
	}
	os.removeReady(next)
	if os.idleValid {
		os.stats.IdleTime += os.k.Now() - os.idleSince
		os.idleValid = false
	}
	os.current = next
	next.sliceUsed = 0 // a dispatch grants a fresh round-robin quantum
	os.setState(next, TaskRunning)
	os.stats.Dispatches++
	os.progress++
	next.chargeSwitch = os.lastRun != nil && os.lastRun != next
	if next.chargeSwitch {
		os.stats.ContextSwitches++
	}
	os.lastRun = next
	os.emitDispatch(prev, next)
	if next.proc != p {
		p.Notify(next.dispatch)
	}
}

// waitUntilDispatched parks the calling task until the dispatcher makes it
// current. The predicate loop makes the handshake robust against lost or
// spurious notifications of the per-task dispatch event.
func (os *OS) waitUntilDispatched(p *sim.Proc, t *Task) {
	for os.current != t {
		p.Wait(t.dispatch)
	}
	if os.ctxCost > 0 && t.chargeSwitch {
		t.chargeSwitch = false
		os.ovhStart = os.k.Now()
		os.ovhValid = true
		p.WaitFor(os.ctxCost)
		os.ovhValid = false
		os.stats.OverheadTime += os.ctxCost
	}
}

func (os *OS) emitDispatch(prev, next *Task) {
	if len(os.observers) == 0 {
		return
	}
	for _, o := range os.observers {
		o.OnDispatch(os.k.Now(), prev, next)
	}
}

func (os *OS) emitIRQ(name string, enter bool) {
	if len(os.observers) == 0 {
		return
	}
	for _, o := range os.observers {
		o.OnIRQ(os.k.Now(), name, enter)
	}
}

func (os *OS) emitReadyQueue() {
	if len(os.extObs) == 0 {
		return
	}
	now := os.k.Now()
	n := os.rq.Len()
	for _, o := range os.extObs {
		o.OnReadyQueue(now, n)
	}
}
