package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Sched is the engine-independent half of the RTOS model: the task table,
// the ready queue with its FIFO and front-reinsert sequencing, policy
// ranking and the dispatch and preemption decisions, the Stats counters
// with their busy/idle/overhead conservation check, end-of-cycle deadline
// accounting, the observer fan-out and the wait-for-graph monitor.
//
// Both execution substrates drive one Sched: OS parks a goroutine per
// task (internal/sim), the run-to-completion engine (internal/rtc)
// returns from resumable frames. Every transition takes the current
// simulated time, never blocks, and reports what the engine must do
// next — wake the task it returns, make the caller yield, or continue.
// The engine supplies only suspension and resumption.
type Sched struct {
	name   string
	policy rule
	tmodel TimeModel

	tasks   []*Task
	spare   []Task // reserved, not yet created task control blocks
	current *Task
	lastRun *Task

	rq readyList

	seq int // ready-queue FIFO sequence source

	// OSEK-conformant preemption re-insertion (frontReinsert): a preempted
	// task re-enters its priority level as the oldest ready task, not the
	// newest. The front counter runs downward so front re-inserts order
	// before every normal arrival in the ascending-seq FIFO tie-break.
	frontSeq int // decrementing seq source for front re-inserts

	idleSince sim.Time
	startedAt sim.Time // start instant; origin of the conservation span

	// In-flight accounting: a modeled delay (or context-switch overhead)
	// whose time has partially elapsed but is not yet credited to the
	// stats. Conservation adds these so it can be called while the
	// simulation is paused mid-delay (e.g. at a RunUntil horizon).
	delayStart sim.Time
	ovhStart   sim.Time

	started       bool
	frontReinsert bool
	idleValid     bool // idleSince is an open idle interval
	delayValid    bool // delayStart is an open delay
	ovhValid      bool // ovhStart is an open context-switch overhead

	stats     Stats
	observers []Observer
	extObs    []ObserverExt

	// Runtime diagnosis (see diagnosis.go): the wait-for-graph monitor is
	// always armed.
	monitor   Monitor
	diagnosis *DiagnosisError
	progress  uint64 // dispatch stamp consumed by the watchdog
}

// Decision is what an engine must do after a scheduling decision.
type Decision uint8

const (
	// Continue: nothing to do.
	Continue Decision = iota
	// Wake: the returned task (if any) was dispatched; resume it.
	Wake
	// Yield: the calling task must give up the CPU (Preempt) and wait to
	// be dispatched again.
	Yield
	// Interrupt: cut the returned running task's modeled delay short
	// (segmented time model); it yields at its next scheduling point.
	Interrupt
)

// rule is the active policy in the form the dispatcher switches on:
// built-in policies cost no interface call on the hot path.
type rule struct {
	kind       polKind
	preemptive bool
	slice      sim.Time // round-robin quantum (0: no time slicing)
	custom     Policy   // the policy when kind is polCustom
}

// polKind is a built-in policy (or polCustom).
type polKind uint8

const (
	polPriority polKind = iota
	polFCFS
	polRR
	polEDF
	polRM
	polCustom // any other Policy implementation
)

// Setup names the instance, selects its policy and time model, and
// empties it.
func (s *Sched) Setup(name string, policy Policy, tm TimeModel) {
	s.name, s.tmodel = name, tm
	s.setPolicy(policy)
	s.reset()
}

// SetupNamed is Setup with the policy given by name, as for
// PolicyByName ("" selects "priority").
func (s *Sched) SetupNamed(name, policy string, quantum sim.Time, tm TimeModel) error {
	if policy == "" {
		policy = "priority"
	}
	k, err := policyKind(policy, quantum)
	if err != nil {
		return err
	}
	s.name, s.tmodel = name, tm
	s.policy = rule{kind: k, preemptive: k != polFCFS}
	if k == polRR {
		s.policy.slice = quantum
	}
	s.reset()
	return nil
}

// reset discards all tasks, counters and diagnosis state; configuration
// and observers are kept.
func (s *Sched) reset() {
	s.started = false
	s.tasks = nil
	s.rq.clear()
	s.current = nil
	s.lastRun = nil
	s.seq = 0
	s.frontSeq = 0
	s.stats = Stats{}
	s.idleValid = false
	s.delayValid = false
	s.ovhValid = false
	s.startedAt = 0
	s.monitor = Monitor{s: s}
	s.diagnosis = nil
	s.progress = 0
}

func (s *Sched) setPolicy(p Policy) {
	r := rule{preemptive: p.Preemptive(), slice: p.Slice()}
	switch p.(type) {
	case PriorityPolicy:
		r.kind = polPriority
	case FCFSPolicy:
		r.kind = polFCFS
	case RoundRobinPolicy:
		r.kind = polRR
	case EDFPolicy:
		r.kind = polEDF
	case RMPolicy:
		r.kind = polRM
	default:
		r.kind, r.custom = polCustom, p
	}
	s.policy = r
}

// Less is Policy.Less without the interface call for built-in policies.
func (r *rule) Less(a, b *Task) bool {
	switch r.kind {
	case polPriority, polRR, polRM:
		return a.prio < b.prio
	case polEDF:
		return a.deadline < b.deadline || a.deadline == b.deadline && a.prio < b.prio
	case polFCFS:
		return false
	}
	return r.custom.Less(a, b)
}

// Name returns the instance name.
func (s *Sched) Name() string { return s.name }

// Policy returns the active scheduling policy.
func (s *Sched) Policy() Policy {
	if s.policy.kind == polCustom {
		return s.policy.custom
	}
	return builtinPolicy(s.policy.kind, s.policy.slice)
}

// TimeModelUsed returns the active time model.
func (s *Sched) TimeModelUsed() TimeModel { return s.tmodel }

// Current returns the task currently holding the CPU (nil if idle).
func (s *Sched) Current() *Task { return s.current }

// Tasks returns all tasks ever created on this instance.
func (s *Sched) Tasks() []*Task { return s.tasks }

// StatsSnapshot returns a copy of the accumulated counters.
func (s *Sched) StatsSnapshot() Stats { return s.stats }

// Progress returns the dispatch stamp the watchdog compares across
// windows.
func (s *Sched) Progress() uint64 { return s.progress }

// Observe registers an observer for scheduling events. Observers that
// also implement ObserverExt additionally receive the extended lifecycle
// callbacks.
func (s *Sched) Observe(o Observer) {
	s.observers = append(s.observers, o)
	if e, ok := o.(ObserverExt); ok {
		s.extObs = append(s.extObs, e)
	}
}

// SetPreemptFrontReinsert selects where a preempted task re-enters its
// priority level: at the back, as the newest ready task (the default,
// the paper's plain FIFO tie-break), or at the front, as the oldest —
// the ordering OSEK OS 2.2.3 §4.6.5 mandates ("a preempted task is
// considered to be the first (oldest) task in the ready list of its
// current priority"). The OSEK personality enables it; other
// personalities keep the default. Voluntary waits and fresh activations
// always enqueue at the back in either mode.
func (s *Sched) SetPreemptFrontReinsert(on bool) { s.frontReinsert = on }

// Reserve makes room for n more tasks: the task table, one chunk of
// control blocks and the ready list, so creating and scheduling them
// allocates nothing further. While both are empty, the task table and
// the ready list share one allocation.
func (s *Sched) Reserve(n int) {
	if len(s.tasks) == 0 && len(s.rq) == 0 && cap(s.tasks) < n && cap(s.rq) < n {
		both := make([]*Task, 2*n)
		s.tasks, s.rq = both[:0:n], both[n:n]
	}
	if cap(s.tasks)-len(s.tasks) < n {
		s.tasks = append(make([]*Task, 0, len(s.tasks)+n), s.tasks...)
	}
	if len(s.spare) < n {
		s.spare = make([]Task, n)
	}
	if cap(s.rq)-len(s.rq) < n {
		s.rq = append(make(readyList, 0, len(s.rq)+n), s.rq...)
	}
}

// NewTask allocates a task control block (paper: task_create) without
// binding it to an engine. For periodic tasks, period must be positive.
func (s *Sched) NewTask(name string, typ TaskType, period, wcet sim.Time, prio int) *Task {
	if typ == Periodic && period <= 0 {
		panic(fmt.Sprintf("core: periodic task %q needs positive period", name))
	}
	if len(s.spare) == 0 {
		s.spare = make([]Task, 1)
	}
	t := &s.spare[0]
	s.spare = s.spare[1:]
	*t = Task{id: len(s.tasks), name: name, typ: typ, period: period,
		wcet: wcet, prio: prio, state: TaskCreated, deadline: sim.Forever, rqIx: -1}
	s.tasks = append(s.tasks, t)
	return t
}

// StartAt begins multi-task scheduling at now (paper: start(sched_alg)).
// If policy is non-nil it replaces the instance's policy. Under RMPolicy
// it derives rate-monotonic priorities for all tasks created so far.
func (s *Sched) StartAt(now sim.Time, policy Policy) {
	if policy != nil {
		s.setPolicy(policy)
	}
	if s.policy.kind == polRM {
		assignRateMonotonic(s.tasks)
	}
	s.started = true
	s.startedAt = now
	s.idleSince = now
	s.idleValid = true
}

// assignRateMonotonic rewrites task priorities per RM: periodic tasks are
// ranked by period (shortest first); aperiodic tasks are pushed below all
// periodic ones, preserving their relative base-priority order. One
// stable sort ranks periodic before aperiodic, then periodic tasks by
// period and aperiodic ones by priority.
func assignRateMonotonic(tasks []*Task) {
	order := slices.Clone(tasks)
	slices.SortStableFunc(order, func(a, b *Task) int {
		ap, bp := a.typ == Periodic, b.typ == Periodic
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

// ---------------------------------------------------------------------------
// Transitions. Each returns the task the engine must resume (nil: none).

// Activate releases t's first job at now and enters it into the ready
// queue; the engine then makes a scheduling decision.
func (s *Sched) Activate(now sim.Time, t *Task) {
	if t.typ == Periodic {
		t.release = now
		t.deadline = t.release + t.period
	}
	s.Ready(now, t)
}

// Dispatch hands the CPU to the best ready task and returns it (nil when
// the queue is empty and the CPU goes idle). prev is the task that last
// held the CPU, for context-switch accounting and observers.
func (s *Sched) Dispatch(now sim.Time, prev *Task) *Task {
	next := s.best()
	if next == nil {
		if !s.idleValid {
			s.idleSince = now
			s.idleValid = true
		}
		if prev != nil {
			s.emitDispatch(now, prev, nil)
		}
		return nil
	}
	s.removeReady(now, next)
	if s.idleValid {
		s.stats.IdleTime += now - s.idleSince
		s.idleValid = false
	}
	s.current = next
	next.sliceUsed = 0 // a dispatch grants a fresh round-robin quantum
	s.setState(now, next, TaskRunning)
	s.stats.Dispatches++
	s.progress++
	next.chargeSwitch = s.lastRun != nil && s.lastRun != next
	if next.chargeSwitch {
		s.stats.ContextSwitches++
	}
	s.lastRun = next
	s.emitDispatch(now, prev, next)
	return next
}

// Release detaches the running task from the CPU (its state must
// already be the one it leaves for) and dispatches the next ready task.
func (s *Sched) Release(now sim.Time) *Task {
	prev := s.current
	s.current = nil
	return s.Dispatch(now, prev)
}

// Preempt moves the running task t back to the ready queue (involuntary
// preemption or slice expiry) and dispatches the best ready task; the
// engine then parks t until it is dispatched again.
func (s *Sched) Preempt(now sim.Time, t *Task) *Task {
	s.stats.Preemptions++
	if len(s.extObs) > 0 {
		by := s.best() // t is not in the queue yet
		for _, o := range s.extObs {
			o.OnPreempt(now, t, by)
		}
	}
	s.makeReadyPreempted(now, t)
	s.current = nil
	return s.Dispatch(now, t)
}

// requeue puts the running task t at the back of its rank and dispatches
// the best ready task (OSEK multiple activation).
func (s *Sched) requeue(now sim.Time, t *Task) *Task {
	s.Ready(now, t)
	s.current = nil
	return s.Dispatch(now, t)
}

// Decide is the scheduling decision after tasks became ready. self
// reports whether the caller is the running task's own control flow
// (an ISR or another process is not). It dispatches onto an idle CPU
// (Wake), asks a preempted running caller to Yield, or — in the
// segmented time model — asks for the running task's delay to be
// Interrupted when a foreign caller readied a preferred task.
func (s *Sched) Decide(now sim.Time, self bool) (*Task, Decision) {
	cur := s.current
	if cur == nil {
		return s.Dispatch(now, nil), Wake
	}
	if self && s.policy.preemptive {
		if !cur.nonpreempt && s.preferred(cur) {
			return cur, Yield
		}
		return nil, Continue
	}
	// Caller is an ISR or a foreign process. In the segmented time model a
	// preferred ready task preempts the running task mid-delay; in the
	// coarse model the switch happens at the running task's next
	// scheduling point (paper Figure 8: t4 → t4').
	if s.tmodel == TimeModelSegmented && s.policy.preemptive && !cur.nonpreempt && s.preferred(cur) {
		return cur, Interrupt
	}
	return nil, Continue
}

// preferred reports whether a ready task strictly orders before t.
func (s *Sched) preferred(t *Task) bool {
	best := s.best()
	return best != nil && s.policy.Less(best, t)
}

// SliceExpired is TimeWait's entry scheduling point: an expired
// round-robin slice starts a fresh one and reports whether the running
// task t must rotate behind an equal-or-better ready task. Checking on
// entry — not after the delay — means a task whose quantum expires
// exactly as its work completes blocks normally instead of suffering a
// spurious preemption plus a second rotation.
func (s *Sched) SliceExpired(t *Task) bool {
	if s.policy.slice <= 0 || t.sliceUsed < s.policy.slice || t.nonpreempt {
		return false
	}
	t.sliceUsed = 0
	b := s.best()
	return b != nil && !s.policy.Less(t, b)
}

// ShouldPreempt is TimeWait's exit scheduling point: it reports whether a
// strictly preferred task became ready while t's delay elapsed.
func (s *Sched) ShouldPreempt(t *Task) bool {
	return s.policy.preemptive && !t.nonpreempt && s.preferred(t)
}

// BeginDelay starts a modeled delay of the running task t.
func (s *Sched) BeginDelay(now sim.Time, t *Task) {
	s.setState(now, t, TaskWaitingTime)
	s.delayStart = now
	s.delayValid = true
}

// EndDelay credits elapsed execution time to t when its delay (or delay
// segment) ends at now.
func (s *Sched) EndDelay(now sim.Time, t *Task, elapsed sim.Time) {
	s.delayValid = false
	t.cpuTime += elapsed
	t.sliceUsed += elapsed
	t.lastWorkDone = now
	s.stats.BusyTime += elapsed
	s.setState(now, t, TaskRunning)
}

// EndCycle closes the running periodic task t's cycle (paper:
// task_endcycle): deadline misses are counted against the instant its
// last modeled delay completed, t waits for its period, and the CPU goes
// to the next ready task. It returns t's next release — periods fully
// overrun by the work are skipped and each counts as missed — and the
// dispatched task.
func (s *Sched) EndCycle(now sim.Time, t *Task) (next sim.Time, woken *Task) {
	if t.typ != Periodic {
		panic(fmt.Sprintf("core: TaskEndCycle on aperiodic task %q", t.name))
	}
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
	next = t.release + t.period
	for next+t.period <= completion {
		next += t.period
		t.missed++
	}
	s.setState(now, t, TaskWaitingPeriod)
	return next, s.Release(now)
}

// NextCycle releases t's job at next (the instant EndCycle returned) and
// enters it into the ready queue.
func (s *Sched) NextCycle(now sim.Time, t *Task, next sim.Time) {
	t.release = next
	t.deadline = next + t.period
	s.Ready(now, t)
}

// Terminate ends the running task t (paper: task_terminate) and hands
// the CPU on.
func (s *Sched) Terminate(now sim.Time, t *Task) *Task {
	if t.typ == Aperiodic {
		t.activations++
	}
	s.setState(now, t, TaskTerminated)
	return s.Release(now)
}

// Block parks the running task t in waiting state ws and hands the CPU
// on.
func (s *Sched) Block(now sim.Time, t *Task, ws TaskState) *Task {
	s.setState(now, t, ws)
	return s.Release(now)
}

// BlockAt is Block with a blocking site label for diagnosis reports.
func (s *Sched) BlockAt(now sim.Time, t *Task, ws TaskState, site string) *Task {
	t.blockSite = site
	return s.Block(now, t, ws)
}

// Wake makes a task blocked in a waiting state ready again and reports
// whether it did; the engine then makes a scheduling decision. Waking a
// task that is not blocked — it already timed out, or was never
// suspended — is a no-op, so grant/timeout races are harmless.
func (s *Sched) Wake(now sim.Time, t *Task) bool {
	if t == s.current || !t.state.Alive() {
		return false
	}
	switch t.state {
	case TaskWaitingEvent, TaskWaitingMutex, TaskWaitingTime, TaskSuspended:
		s.Ready(now, t)
		return true
	}
	return false
}

// IRQ records an interrupt service routine's entry or return; a return
// counts in Stats.IRQs. The engine makes a scheduling decision after the
// return.
func (s *Sched) IRQ(now sim.Time, name string, enter bool) {
	if !enter {
		s.stats.IRQs++
	}
	if len(s.observers) == 0 {
		return
	}
	for _, o := range s.observers {
		o.OnIRQ(now, name, enter)
	}
}

// Conservation verifies the time accounting at now: since the start,
// every unit of simulated time must be attributed to exactly one of
// modeled task execution (BusyTime), an empty ready queue (IdleTime) or
// context-switch overhead (OverheadTime), counting a delay still in
// flight up to now. A non-nil error indicates a scheduler accounting bug,
// never an application error. Before the start it returns nil.
func (s *Sched) Conservation(now sim.Time) error {
	if !s.started {
		return nil
	}
	span := now - s.startedAt
	busy := s.stats.BusyTime
	if s.delayValid {
		busy += now - s.delayStart
	}
	idle := s.stats.IdleTime
	if s.idleValid {
		idle += now - s.idleSince
	}
	ovh := s.stats.OverheadTime
	if s.ovhValid {
		ovh += now - s.ovhStart
	}
	if busy+idle+ovh != span {
		return fmt.Errorf(
			"core[%s]: time conservation violated at %v: busy %v + idle %v + overhead %v = %v, want span %v (start %v)",
			s.name, now, busy, idle, ovh, busy+idle+ovh, span, s.startedAt)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Ready queue and observer fan-out.

// Ready enters t into the ready queue as the newest of its rank (a no-op
// for a finished task).
func (s *Sched) Ready(now sim.Time, t *Task) {
	if !t.state.Alive() {
		return
	}
	s.setState(now, t, TaskReady)
	s.seq++
	s.rq.push(t, s.seq)
	s.emitReadyQueue(now)
}

// makeReadyPreempted re-inserts a task that lost the CPU involuntarily.
// Default mode is identical to Ready (re-enter as newest); under
// SetPreemptFrontReinsert the task re-enters as the oldest of its rank,
// drawing its seq from the decrementing front counter so the front-push
// and the seq order of a later rebuildReady agree.
func (s *Sched) makeReadyPreempted(now sim.Time, t *Task) {
	if !s.frontReinsert {
		s.Ready(now, t)
		return
	}
	if !t.state.Alive() {
		return
	}
	s.setState(now, t, TaskReady)
	s.frontSeq--
	s.rq.push(t, s.frontSeq)
	s.emitReadyQueue(now)
}

// removeReady drops t from the ready queue if present.
func (s *Sched) removeReady(now sim.Time, t *Task) {
	if s.rq.remove(t) {
		s.emitReadyQueue(now)
	}
}

// setState transitions a task and notifies observers. With no observer
// attached the transition is a bare field write.
func (s *Sched) setState(now sim.Time, t *Task, st TaskState) {
	if t.state == st {
		return
	}
	if len(s.observers) == 0 {
		t.state = st
		return
	}
	s.notifyState(now, t, st)
}

// notifyState is setState with observers: it also derives the extended
// lifecycle edges from the transition — entering a waiting state is a
// block, leaving one for the ready queue is an unblock, and becoming
// ready from created/end-of-period/suspended marks a new job release.
func (s *Sched) notifyState(now sim.Time, t *Task, st TaskState) {
	old := t.state
	t.state = st
	for _, o := range s.observers {
		o.OnTaskState(now, t, old, st)
	}
	if len(s.extObs) == 0 {
		return
	}
	if r := blockReasonFor(st); r != BlockNone {
		for _, o := range s.extObs {
			o.OnBlock(now, t, r)
		}
	}
	if st == TaskReady {
		if r := blockReasonFor(old); r != BlockNone {
			for _, o := range s.extObs {
				o.OnUnblock(now, t, r)
			}
		}
		if old == TaskCreated || old == TaskWaitingPeriod || old == TaskSuspended {
			for _, o := range s.extObs {
				o.OnRelease(now, t)
			}
		}
	}
}

func (s *Sched) emitDispatch(now sim.Time, prev, next *Task) {
	for _, o := range s.observers {
		o.OnDispatch(now, prev, next)
	}
}

func (s *Sched) emitReadyQueue(now sim.Time) {
	if len(s.extObs) > 0 {
		s.notifyReadyQueue(now)
	}
}

func (s *Sched) notifyReadyQueue(now sim.Time) {
	for _, o := range s.extObs {
		o.OnReadyQueue(now, len(s.rq))
	}
}
