package sim

import (
	"fmt"
	"strings"
	"sync"
)

// Kernel is the discrete-event simulation engine. Create one with
// NewKernel, spawn one or more root processes with Spawn, then call Run
// or RunUntil. A Kernel is not safe for concurrent use from multiple
// goroutines. Its processes run as runtime coroutines that Run resumes one
// at a time, so at most one of them (or the Run caller) touches kernel
// state at any instant.
type Kernel struct {
	now   Time
	delta uint64
	seq   int // process id source

	ready   []*Proc // runnable in the current delta cycle, FIFO
	readyAt int     // consumption index into ready (avoids slice creep)
	next    []*Proc // runnable in the next delta cycle, FIFO

	timers    Timers
	timerSeq  int
	timerTab  []timerSlot // timer id → what the timer wakes
	timerFree int         // id + 1 of the first free timerTab slot; 0 if none

	active   int // processes not yet finished
	stopped  bool
	failure  error // set by Fail; returned by Run/RunUntil once stopped
	panicked interface{}

	limit  Time  // active RunUntil horizon (inclusive)
	runErr error // pending error detected while advancing (livelock)

	procs []*Proc // all processes ever created, for diagnostics

	stallHandlers []StallHandler
	deltaLimit    uint64 // max delta cycles per time step; 0 = unlimited

	// Steps counts process activations (resumes, plus wake-ups a process
	// takes without a switch); exposed for tests and benchmarks of kernel
	// overhead.
	Steps uint64
}

// timerSlots is how many timers a new kernel's tables hold before they
// grow, so a small model's first timers do not reallocate them one
// doubling at a time (the vocoder's models keep at most three pending).
const timerSlots = 8

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	k := &Kernel{timerTab: make([]timerSlot, 0, timerSlots)}
	k.timers.Reserve(timerSlots)
	return k
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// DeltaCycle returns the delta-cycle counter within the current time step.
func (k *Kernel) DeltaCycle() uint64 { return k.delta }

// Active returns the number of live (unfinished) processes.
func (k *Kernel) Active() int { return k.active }

// Procs returns all processes ever created, in creation order. After
// Shutdown the list is empty: process handles are recycled.
func (k *Kernel) Procs() []*Proc { return k.procs }

// procPool recycles Proc structs across kernels, so batch workloads that
// create thousands of short-lived kernels do not re-allocate one struct
// per process per run. A Proc enters the pool only from Kernel.Shutdown,
// once it has ended; holding a *Proc across Shutdown is valid only for
// reading its final name/state until another kernel is created.
var procPool = sync.Pool{New: func() interface{} { return new(Proc) }}

// newProc allocates (or recycles) a process. It gets a carrier on its
// first resume.
func (k *Kernel) newProc(name string, fn Func, parent *Proc) *Proc {
	p := procPool.Get().(*Proc)
	children := p.children[:0]
	waitEvents := p.waitEvents[:0]
	*p = Proc{
		k:          k,
		id:         k.seq,
		name:       name,
		fn:         fn,
		state:      StateCreated,
		parent:     parent,
		children:   children,
		waitEvents: waitEvents,
	}
	k.seq++
	k.active++
	k.procs = append(k.procs, p)
	return p
}

// releaseProc returns a terminated process to the pool. The final name and
// state are kept readable for diagnostics that outlive the kernel.
func releaseProc(p *Proc) {
	p.k = nil
	p.fn = nil
	p.parent = nil
	for i := range p.children {
		p.children[i] = nil
	}
	p.children = p.children[:0]
	for i := range p.waitEvents {
		p.waitEvents[i] = nil
	}
	p.waitEvents = p.waitEvents[:0]
	p.timer = 0
	p.wokenBy = nil
	p.c = nil // a carrier still bound here never came back: it is dead
	procPool.Put(p)
}

// Spawn creates a root process. It may be called before Run to set up the
// model, or from hook code between RunUntil calls. Root processes spawned
// before Run start at time zero in creation order.
func (k *Kernel) Spawn(name string, fn Func) *Proc {
	p := k.newProc(name, fn, nil)
	k.enqueueReady(p)
	return p
}

// enqueueReady schedules p into the current delta cycle.
func (k *Kernel) enqueueReady(p *Proc) { k.ready = append(k.ready, p) }

// enqueueNext schedules p into the next delta cycle.
func (k *Kernel) enqueueNext(p *Proc) { k.next = append(k.next, p) }

// popReady dequeues the next runnable process of the current delta cycle.
func (k *Kernel) popReady() *Proc {
	if k.readyAt >= len(k.ready) {
		return nil
	}
	p := k.ready[k.readyAt]
	k.ready[k.readyAt] = nil
	k.readyAt++
	if k.readyAt == len(k.ready) {
		k.ready = k.ready[:0]
		k.readyAt = 0
	}
	return p
}

// removeFromQueues drops p from the ready and next-delta queues (kill
// path).
func (k *Kernel) removeFromQueues(p *Proc) {
	for i := k.readyAt; i < len(k.ready); i++ {
		if k.ready[i] == p {
			k.ready = append(k.ready[:i], k.ready[i+1:]...)
			break
		}
	}
	k.next = removeProc(k.next, p)
}

func removeProc(q []*Proc, p *Proc) []*Proc {
	for i, x := range q {
		if x == p {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// Run executes the simulation until no process can make progress or a
// process calls Stop. It returns a DeadlockError if live processes remain
// blocked with no pending timer (and Stop was not called), unless a
// registered stall handler (OnStall) substitutes a richer error.
func (k *Kernel) Run() error { return k.RunUntil(Forever) }

// RunUntil executes the simulation up to and including logical time limit:
// the horizon is inclusive. Timers scheduled at exactly limit fire, the
// processes they wake run, and any zero-delay follow-up work they create
// at that instant (delta cycles, new timers due at limit) completes before
// RunUntil returns. Only timers strictly after limit remain pending;
// calling RunUntil again with a later limit resumes the simulation. After
// a horizon return, Now reports the time of the last timer fired, which
// may be earlier than limit if nothing was scheduled at limit itself.
func (k *Kernel) RunUntil(limit Time) error {
	k.limit = limit
	for p := k.pick(); p != nil; {
		// Resume p until it blocks or ends. A blocking process computes
		// the next runnable process itself and yields it as the
		// hand-off; nil means there is none (horizon, nothing scheduled,
		// stop, livelock or panic).
		k.Steps++
		p = k.resume(p)
		if r := k.panicked; r != nil {
			k.panicked = nil
			panic(r)
		}
	}
	if err := k.runErr; err != nil {
		k.runErr = nil
		return err
	}
	if k.stopped {
		return k.failure
	}
	if t, ok := k.timers.Next(); ok && t > limit {
		return nil // time horizon reached; state preserved
	}
	if live := k.liveProcs(); len(live) > 0 {
		for _, h := range k.stallHandlers {
			if err := h(k.now, live); err != nil {
				return err
			}
		}
		return newDeadlockError(k.now, live)
	}
	return nil
}

// nextRunnable returns the next process to resume, advancing delta cycles
// and simulated time (firing due timers) as needed. It returns nil when
// control must go back to the Run caller: the horizon was passed, nothing
// is scheduled, or a livelock was detected (recorded in k.runErr). It may
// run on the Run caller or on a blocking process, which computes its own
// hand-off; only one of them runs at a time.
func (k *Kernel) nextRunnable() *Proc {
	for {
		if p := k.popReady(); p != nil {
			return p
		}
		if len(k.next) > 0 {
			k.ready, k.next = k.next, k.ready[:0]
			k.readyAt = 0
			k.delta++
			if k.deltaLimit > 0 && k.delta > k.deltaLimit {
				if k.runErr == nil {
					k.runErr = &LivelockError{Time: k.now, Deltas: k.delta}
				}
				return nil
			}
			continue
		}
		t, ok := k.timers.Next()
		if !ok || t > k.limit {
			return nil // nothing scheduled, or horizon reached
		}
		k.now = t
		k.delta = 0
		k.fireTimers(t)
	}
}

// pick returns the process to run next, or nil when control must go back
// to the Run caller: stop, a recorded panic or livelock, or no runnable
// work up to the horizon.
func (k *Kernel) pick() *Proc {
	if k.stopped || k.panicked != nil || k.runErr != nil {
		return nil
	}
	return k.nextRunnable()
}

// resume switches to p's coroutine until p blocks or ends, and returns the
// hand-off p yields. A process gets a carrier on its first resume and
// gives it back once it has ended.
func (k *Kernel) resume(p *Proc) *Proc {
	c := p.c
	if c == nil {
		c = getCarrier()
		c.p = p
		p.c = c
	}
	h, _ := c.next()
	if p.ended() {
		h, c.h = c.h, nil
		p.c = nil
		putCarrier(c)
	}
	return h
}

// Fail stops the run with err: the innermost Run/RunUntil call returns err
// once the calling process next yields or blocks. The first failure wins;
// later Fail calls keep the original error. Layered runtime models (e.g.
// the RTOS deadlock detector) use it to surface a structured diagnosis
// instead of letting the simulation hang or panic.
func (k *Kernel) Fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
	k.stopped = true
}

// StallHandler inspects a stalled simulation: live non-daemon processes
// remain but no timer is pending, the condition Run/RunUntil reports as a
// DeadlockError. A handler returning a non-nil error replaces that generic
// error (handlers are consulted in registration order; the first non-nil
// result wins). Handlers run on the Run caller's goroutine with the
// simulation quiescent; they must not resume processes.
type StallHandler func(at Time, live []*Proc) error

// OnStall registers a stall handler; see StallHandler.
func (k *Kernel) OnStall(h StallHandler) { k.stallHandlers = append(k.stallHandlers, h) }

// PendingTimers returns the number of queued timer entries: process
// timeouts and timed notifications neither fired nor canceled. Watchdog
// processes use it to recognize that only their own timer keeps the
// simulation alive.
func (k *Kernel) PendingTimers() int {
	return k.timers.Len()
}

// SetDeltaLimit bounds the number of delta cycles within one time step
// (0 = unlimited, the default). A model that exchanges notifications
// forever without advancing time — a zero-delay livelock — exceeds the
// bound and Run/RunUntil returns a LivelockError instead of spinning.
func (k *Kernel) SetDeltaLimit(n uint64) { k.deltaLimit = n }

// LivelockError reports that a time step exceeded the configured
// delta-cycle limit: processes kept waking each other with zero-delay
// notifications and simulated time could not advance.
type LivelockError struct {
	Time   Time
	Deltas uint64
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("sim: livelock at %s: %d delta cycles without time advancing", e.Time, e.Deltas)
}

// Shutdown terminates every remaining process, so its carrier coroutine
// goes back to the idle stack, then marks the kernel stopped. A kernel
// whose run has ended — at a RunUntil horizon, by Stop, or by a propagated
// panic — still holds one parked coroutine per started, unfinished process
// (daemons, blocked tasks); a batch workload that creates thousands of
// kernels would accumulate them without bound. Callers that own a kernel
// for a single run should defer Shutdown right after NewKernel. Shutdown
// must not be called while the simulation is running (i.e. from process
// code); it is idempotent and safe after a deadlock, a horizon pause, or
// a re-raised process panic. Deferred functions of killed processes run
// as for Kill and must not block on simulation primitives.
//
// Shutdown also recycles the kernel's process control blocks: *Proc
// handles remain readable (final name and state) until the program creates
// new processes, but must not be retained beyond that.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		k.kill(p, nil)
	}
	k.stopped = true
	for i, p := range k.procs {
		k.procs[i] = nil
		releaseProc(p)
	}
	k.procs = k.procs[:0]
}

// timerSlot is what a queued timer wakes: a process timeout (p != nil)
// or a timed notification (e != nil). It is stored by value in the
// kernel's id-indexed timer table.
type timerSlot struct {
	p    *Proc
	e    *Event
	next int // while free: the next free slot's id + 1 (0 ends the list)
}

// fireTimers pops every timer scheduled at exactly time t, waking
// timed-out processes into the (fresh) current delta cycle and flushing
// timed notifications.
func (k *Kernel) fireTimers(t Time) {
	for {
		id, ok := k.timers.PopDue(t)
		if !ok {
			return
		}
		slot := k.timerTab[id]
		k.releaseTimer(id)
		switch {
		case slot.p != nil:
			slot.p.wakeFromTimer()
		case slot.e != nil:
			slot.e.flush()
		}
	}
}

// addTimer queues a timer, either a process timeout (p != nil) or a
// timed event notification (e != nil), and returns its id. Ids are
// recycled through a free list threaded through the table, so
// steady-state timer scheduling does not allocate.
func (k *Kernel) addTimer(at Time, p *Proc, e *Event) int {
	id := k.timerFree - 1
	if id >= 0 {
		k.timerFree = k.timerTab[id].next
	} else {
		id = len(k.timerTab)
		k.timerTab = append(k.timerTab, timerSlot{})
	}
	k.timerTab[id] = timerSlot{p: p, e: e}
	k.timerSeq++
	k.timers.Push(id, at, k.timerSeq)
	return id
}

// releaseTimer frees the slot of a popped or canceled timer.
func (k *Kernel) releaseTimer(id int) {
	k.timerTab[id] = timerSlot{next: k.timerFree}
	k.timerFree = id + 1
}

// cancelTimer removes process p's pending timeout, if it has one.
func (k *Kernel) cancelTimer(p *Proc) {
	if id := p.timer - 1; id >= 0 {
		k.timers.Cancel(id)
		k.releaseTimer(id)
		p.timer = 0
	}
}

// kill terminates target and its children recursively; see Proc.Kill.
func (k *Kernel) kill(target, killer *Proc) {
	if target.ended() {
		return
	}
	// Children first, so join accounting in exit() sees a live parent.
	for _, c := range append([]*Proc(nil), target.children...) {
		k.kill(c, killer)
	}
	if target.ended() {
		return // finished while its children were being killed
	}
	if target == killer {
		// Self-kill: unwind through the caller's own stack.
		panic(killedSignal{})
	}
	// Detach from every wait structure.
	for _, e := range target.waitEvents {
		e.removeWaiter(target)
	}
	target.waitEvents = target.waitEvents[:0]
	k.cancelTimer(target)
	k.removeFromQueues(target)
	if target.c == nil {
		// Never ran: there is no stack to unwind.
		target.state = StateKilled
		target.exit()
		return
	}
	// Resume it in kill mode: it unwinds from its blocking primitive and
	// yields straight back here.
	target.killed = true
	k.resume(target)
	if !target.ended() {
		panic(fmt.Sprintf("sim: %s blocked while being killed", target))
	}
}

// liveProcs returns non-daemon processes that are not done/killed — the
// processes whose blockage constitutes a deadlock.
func (k *Kernel) liveProcs() []*Proc {
	var live []*Proc
	for _, p := range k.procs {
		if p.state != StateDone && p.state != StateKilled && !p.daemon {
			live = append(live, p)
		}
	}
	return live
}

// DeadlockError reports that the simulation stalled with live processes
// blocked on events that can never be notified.
type DeadlockError struct {
	Time  Time
	Procs []*Proc

	// msg is the report formatted while the processes were still live;
	// Proc handles may be recycled after Kernel.Shutdown, so the error
	// string must not be derived from them lazily.
	msg string
}

// newDeadlockError snapshots the blocked process set into a self-contained
// error.
func newDeadlockError(at Time, procs []*Proc) *DeadlockError {
	e := &DeadlockError{Time: at, Procs: procs}
	e.msg = e.format()
	return e
}

func (e *DeadlockError) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at %s: %d process(es) blocked:", e.Time, len(e.Procs))
	for _, p := range e.Procs {
		fmt.Fprintf(&b, "\n\t%s", p)
	}
	return b.String()
}

func (e *DeadlockError) Error() string {
	if e.msg != "" {
		return e.msg
	}
	return e.format()
}
