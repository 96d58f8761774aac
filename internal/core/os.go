package core

import (
	"fmt"

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

// Observer receives RTOS-level scheduling events; telemetry.AttachSched
// adapts this interface (with ObserverExt) into the event stream that
// every sink, the trace recorder included, consumes. All callbacks run
// synchronously inside the simulation, so implementations must not block.
type Observer interface {
	// OnTaskState fires on every task state transition.
	OnTaskState(at sim.Time, t *Task, old, new TaskState)
	// OnDispatch fires when CPU slot cpu (always 0 on one CPU) is handed
	// over; prev and/or next may be nil (idle). On several CPUs a slot
	// is vacated (next nil) and filled (prev nil) in separate calls.
	OnDispatch(at sim.Time, cpu int, prev, next *Task)
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
	// OnPreempt fires when t involuntarily loses CPU slot cpu (a
	// preferred task became ready, or its round-robin slice expired). by
	// is the best ready task at that instant and may be nil.
	OnPreempt(at sim.Time, cpu int, t *Task, by *Task)
	// OnBlock fires when t leaves the CPU for a waiting state.
	OnBlock(at sim.Time, t *Task, reason BlockReason)
	// OnUnblock fires when t re-enters the ready queue from a waiting
	// state, with the reason it had been waiting.
	OnUnblock(at sim.Time, t *Task, reason BlockReason)
	// OnReadyQueue fires whenever the ready-queue length changes to n.
	// cpu is the slot held by the task whose transition changed it, or 0
	// when that task holds none.
	OnReadyQueue(at sim.Time, cpu, n int)
}

// Stats aggregates the counters the paper's Table 1 reports (context
// switches) plus supporting metrics.
//
// BusyTime, IdleTime and OverheadTime partition the wall-clock span of the
// scheduler: from Start to any later instant, BusyTime + IdleTime +
// OverheadTime equals the elapsed simulated time, times M on M CPUs, once
// the intervals still open are counted (Sched.Conservation asserts
// exactly this).
type Stats struct {
	Dispatches      uint64   // CPU handovers to a task
	ContextSwitches uint64   // handovers to a different task than last ran
	Preemptions     uint64   // involuntary CPU losses of a running task
	IRQs            uint64   // InterruptReturn count
	IdleTime        sim.Time // accumulated time with no task on a CPU (all CPUs)
	BusyTime        sim.Time // accumulated modeled execution time (all tasks)
	OverheadTime    sim.Time // accumulated context-switch overhead (ctxCost)
}

// OS is one processing element's instance of the abstract RTOS model —
// the paper's "RTOS model channel" — on the goroutine simulation kernel.
// All methods taking a *sim.Proc must be passed the calling simulation
// process; task-management and event calls other than notifications
// must be made by the task currently holding the CPU, exactly as
// application code calls into a real RTOS kernel.
//
// The scheduler state and its transitions are the embedded Sched, shared
// with the run-to-completion engine; OS adds only what parking one
// simulation process per task needs: binding processes to tasks, waiting until
// dispatched, and notifying the dispatched task's process.
type OS struct {
	Sched
	k *sim.Kernel

	// ContextSwitchCost, if non-zero, adds a modeled kernel overhead delay
	// to every context switch (an extension over the paper's zero-cost
	// switches; exercised by the overhead ablation).
	ctxCost sim.Time

	watchdogOn bool
}

// Option configures an OS at construction.
type Option func(*OS)

// WithTimeModel selects the TimeWait preemption model (default
// TimeModelCoarse, the paper's model).
func WithTimeModel(m TimeModel) Option { return func(o *OS) { o.tmodel = m } }

// WithContextSwitchCost models a fixed kernel overhead per context switch.
func WithContextSwitchCost(d sim.Time) Option { return func(o *OS) { o.ctxCost = d } }

// WithCPUs gives the instance n identical CPUs under one global
// scheduler (default 1). It panics unless 1 <= n <= 32767.
func WithCPUs(n int) Option { return func(o *OS) { o.setCPUs(n) } }

// New creates an RTOS model instance named name (typically the PE name) on
// kernel k with the given scheduling policy.
func New(k *sim.Kernel, name string, policy Policy, opts ...Option) *OS {
	os := &OS{k: k}
	os.Setup(name, policy, TimeModelCoarse)
	for _, opt := range opts {
		opt(os)
	}
	// When the simulation kernel is about to give up with a generic
	// deadlock, translate the blockage into a wait-for-graph diagnosis
	// (exact cycle, task names, blocking sites) and fail with that instead.
	k.OnStall(func(at sim.Time, live []*sim.Proc) error {
		if d := os.DiagnoseStall(at, procDaemon); d != nil {
			os.RecordDiagnosis(d)
			return d
		}
		return nil
	})
	return os
}

// Kernel returns the underlying simulation kernel.
func (os *OS) Kernel() *sim.Kernel { return os.k }

// Init (re)initializes the kernel data structures (paper: init). New calls
// it implicitly; calling it again discards all tasks and counters.
func (os *OS) Init() { os.reset() }

// Start begins multi-task scheduling (paper: start(sched_alg)). If policy
// is non-nil it replaces the instance's policy. Under RMPolicy, Start
// derives rate-monotonic priorities for all tasks created so far.
func (os *OS) Start(policy Policy) { os.StartAt(os.k.Now(), policy) }

// TaskCreate allocates a task control block (paper: task_create). For
// periodic tasks, period must be positive; wcet is an informational
// execution-time budget. The task is bound to its simulation process by
// its first TaskActivate call.
func (os *OS) TaskCreate(name string, typ TaskType, period, wcet sim.Time, prio int) *Task {
	t := os.NewTask(name, typ, period, wcet, prio)
	t.dispatch = os.k.NewEvent(name + ".dispatch")
	t.preempt = os.k.NewEvent(name + ".preempt")
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
		os.Activate(os.k.Now(), t)
		p.YieldDelta()
		os.decideFrom(p)
		os.waitUntilDispatched(p, t)
		return
	}
	// Activation of another task by the running task (or an ISR).
	switch t.state {
	case TaskSuspended, TaskCreated:
		os.Activate(os.k.Now(), t)
		os.decideFrom(p)
	}
}

// TaskTerminate ends the calling task (paper: task_terminate). The task's
// process continues executing (it is expected to return shortly after);
// the CPU is handed to the next ready task.
func (os *OS) TaskTerminate(p *sim.Proc) {
	t := os.mustCurrent(p, "TaskTerminate")
	os.wake(p, os.Terminate(os.k.Now(), t))
}

// TaskSleep suspends the calling task until another task activates it
// (paper: task_sleep).
func (os *OS) TaskSleep(p *sim.Proc) {
	t := os.mustCurrent(p, "TaskSleep")
	os.wake(p, os.Block(os.k.Now(), t, TaskSuspended))
	os.waitUntilDispatched(p, t)
}

// TaskKill forcibly terminates another task (paper: task_kill): it is
// removed from all OS queues and its simulation process is unwound.
// Killing the running task is equivalent to TaskTerminate of the caller.
func (os *OS) TaskKill(p *sim.Proc, t *Task) {
	if !t.state.Alive() {
		return
	}
	now := os.k.Now()
	if t.cpu >= 0 {
		os.closeOpen(now, t) // t may be mid-delay on another CPU
		os.wake(p, os.Block(now, t, TaskKilled))
		p.Kill(t.proc) // unwinds the caller
		return
	}
	os.removeReady(now, t, 0)
	os.setState(now, t, TaskKilled)
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
	now := os.k.Now()
	next, woken := os.EndCycle(now, t)
	os.wake(p, woken)
	if next > now {
		p.WaitFor(next - now)
	}
	os.NextCycle(os.k.Now(), t, next)
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
	os.wake(p, os.Block(os.k.Now(), t, TaskWaitingChildren))
	return t
}

// ParEnd resumes the calling task after its par statement joined (paper:
// par_end): the task re-enters the ready queue and blocks until
// re-dispatched.
func (os *OS) ParEnd(p *sim.Proc, t *Task) {
	if t.state != TaskWaitingChildren {
		panic(fmt.Sprintf("core: ParEnd on task %q in state %s", t.name, t.state))
	}
	os.Ready(os.k.Now(), t)
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
	if os.SliceExpired(t) {
		os.yieldCPU(p, t)
	}
	if os.tmodel == TimeModelSegmented {
		// The delay is interruptible: a preemption request aborts the
		// wait, the task yields, and the remaining execution time is
		// consumed after re-dispatch.
		for remaining := d; remaining > 0; {
			start := os.k.Now()
			os.BeginDelay(start, t)
			preempted := p.WaitTimeout(t.preempt, remaining)
			elapsed := os.k.Now() - start
			os.EndDelay(os.k.Now(), t, elapsed)
			remaining -= elapsed
			if preempted && remaining > 0 {
				os.yieldCPU(p, t)
			}
		}
	} else {
		// The paper's model: the delay runs to completion before
		// re-scheduling.
		os.BeginDelay(os.k.Now(), t)
		p.WaitFor(d)
		os.EndDelay(os.k.Now(), t, d)
	}
	if os.ShouldPreempt(t) {
		os.yieldCPU(p, t)
	} else if os.cpus != nil {
		os.decideFrom(p) // an idle CPU takes waiting work
	}
}

// CheckConservation verifies the scheduler's time accounting at the
// current simulation instant (see Sched.Conservation). A modeled delay
// (or overhead) still in flight — e.g. when the simulation was paused at
// a RunUntil horizon mid-TimeWait — is counted up to the current instant.
func (os *OS) CheckConservation() error { return os.Conservation(os.k.Now()) }

// EventNew allocates an RTOS event (paper: event_new).
func (os *OS) EventNew(name string) *OSEvent { return NewOSEvent(name) }

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
	os.wake(p, os.WaitEvent(os.k.Now(), t, e))
	os.waitUntilDispatched(p, t)
}

// EventNotify wakes every task blocked on the event (paper: event_notify,
// the replacement for SLDL notify) and triggers a scheduling decision.
// It may be called by the running task or by an interrupt handler.
func (os *OS) EventNotify(p *sim.Proc, e *OSEvent) {
	if os.NotifyEvent(os.k.Now(), e) {
		os.decideFrom(p)
	}
}

// InterruptEnter marks the begin of an interrupt service routine for
// bookkeeping and tracing. ISRs execute as plain SLDL processes above the
// RTOS model (the paper generates them inside bus drivers); they may call
// EventNotify and TaskActivate but must not block on RTOS services.
func (os *OS) InterruptEnter(p *sim.Proc, name string) {
	os.IRQ(os.k.Now(), name, true)
}

// InterruptReturn notifies the RTOS kernel at the end of an interrupt
// service routine (paper: interrupt_return) and triggers a scheduling
// decision for any tasks the ISR released.
func (os *OS) InterruptReturn(p *sim.Proc, name string) {
	os.IRQ(os.k.Now(), name, false)
	os.decideFrom(p)
}

// OSEvent is an RTOS-level synchronization event with a task wait queue
// (the paper's evt type).
type OSEvent struct {
	name    string
	site    string // "event:<name>", precomputed for the EventWait hot path
	queue   []*Task
	deleted bool
}

// NewOSEvent allocates an RTOS event with an empty wait queue.
func NewOSEvent(name string) *OSEvent { return &OSEvent{name: name, site: "event:" + name} }

// Name returns the event's diagnostic name.
func (e *OSEvent) Name() string { return e.name }

// WaitEvent queues the running task t on e and blocks it — EventWait's
// state half; it returns the task dispatched in t's place.
func (s *Sched) WaitEvent(now sim.Time, t *Task, e *OSEvent) *Task {
	e.queue = append(e.queue, t)
	return s.BlockAt(now, t, TaskWaitingEvent, e.site)
}

// NotifyEvent readies every task waiting on e and reports whether there
// was one — EventNotify's state half; the engine then makes a scheduling
// decision. A notification with no waiter is lost, like the SLDL
// primitive it models.
func (s *Sched) NotifyEvent(now sim.Time, e *OSEvent) bool {
	if len(e.queue) == 0 {
		return false
	}
	// Reslice rather than nil out so steady-state wait/notify cycles reuse
	// the queue's backing array instead of reallocating it. Safe: nothing
	// re-enters WaitEvent (the only appender) while the wake loop runs —
	// the woken tasks only become ready here; they execute later.
	woken := e.queue
	e.queue = e.queue[:0]
	for _, t := range woken {
		s.Ready(now, t)
	}
	return true
}

// ---------------------------------------------------------------------------
// Goroutine-engine glue: the Sched transitions plus process parking.

// mustCurrent asserts the calling process is a running task and returns
// it.
func (os *OS) mustCurrent(p *sim.Proc, op string) *Task {
	if t := os.current; t != nil && t.proc == p {
		return t
	}
	for _, c := range os.cpus {
		if c.run != nil && c.run.proc == p {
			return c.run
		}
	}
	cur := "idle"
	if t := os.current; t != nil {
		cur = t.name
	}
	panic(fmt.Sprintf("core[%s]: %s called by process %q but running task is %s",
		os.name, op, p.Name(), cur))
}

// wake hands the CPU to a task the scheduler dispatched: its process is
// parked in waitUntilDispatched unless it is the caller itself. On
// several CPUs a transition that frees a slot dispatches nothing (next
// is nil); a global decision refills the slots instead.
func (os *OS) wake(p *sim.Proc, next *Task) {
	if next == nil && os.cpus != nil {
		os.decideFrom(p)
		return
	}
	if next != nil && next.proc != p {
		p.Notify(next.dispatch)
	}
}

// yieldCPU moves the running task back to the ready queue (involuntary
// preemption or slice expiry), dispatches the best ready task and blocks
// until the caller is re-dispatched.
func (os *OS) yieldCPU(p *sim.Proc, t *Task) {
	os.wake(p, os.Preempt(os.k.Now(), t))
	os.waitUntilDispatched(p, t)
}

// decideFrom performs a scheduling decision from an arbitrary context:
// the running task (which may lose the CPU), an ISR, or an unbound task
// process releasing itself. On several CPUs it repeats the decision
// while it dispatches.
func (os *OS) decideFrom(p *sim.Proc) {
	for {
		cur := os.current
		t, d := os.Decide(os.k.Now(), cur != nil && cur.proc == p)
		switch d {
		case Wake:
			os.wake(p, t)
		case Yield:
			os.yieldCPU(p, t)
		case Interrupt:
			p.Notify(t.preempt)
		}
		if d != Wake || t == nil || os.cpus == nil {
			return
		}
	}
}

// waitUntilDispatched parks the calling task until the dispatcher gives
// it a CPU. The predicate loop makes the handshake robust against lost or
// spurious notifications of the per-task dispatch event.
func (os *OS) waitUntilDispatched(p *sim.Proc, t *Task) {
	for t.cpu < 0 {
		p.Wait(t.dispatch)
	}
	if os.ctxCost > 0 && t.chargeSwitch {
		t.chargeSwitch = false
		c := os.slotTimeAt(int(t.cpu))
		c.ovhStart, c.ovhValid = os.k.Now(), true
		p.WaitFor(os.ctxCost)
		c.ovhValid = false
		os.stats.OverheadTime += os.ctxCost
	}
}
