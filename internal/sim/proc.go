package sim

import "fmt"

// State describes what a process is currently doing. Exposed for
// diagnostics (deadlock reports) and for the RTOS model's bookkeeping.
type State int

const (
	// StateCreated: spawned but not yet run for the first time.
	StateCreated State = iota
	// StateReady: runnable, queued for the current or next delta cycle.
	StateReady
	// StateRunning: the (single) process currently executing.
	StateRunning
	// StateWaitEvent: blocked in Wait/WaitAny with no timeout.
	StateWaitEvent
	// StateWaitTime: blocked in WaitFor.
	StateWaitTime
	// StateWaitTimeout: blocked in WaitTimeout (event or timer, whichever
	// fires first).
	StateWaitTimeout
	// StateWaitChildren: blocked in Par waiting for forked children.
	StateWaitChildren
	// StateDone: the process function returned.
	StateDone
	// StateKilled: forcibly terminated via Kill.
	StateKilled
)

// String returns a short human-readable state name.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateWaitEvent:
		return "wait-event"
	case StateWaitTime:
		return "wait-time"
	case StateWaitTimeout:
		return "wait-timeout"
	case StateWaitChildren:
		return "wait-children"
	case StateDone:
		return "done"
	case StateKilled:
		return "killed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// killedSignal is the panic payload used to unwind a killed process
// through its blocking primitive.
type killedSignal struct{}

// Func is the body of a simulation process.
type Func func(p *Proc)

// Proc is a simulation process: the SLDL notion of an independent thread
// of control. Once it first runs, its Func executes on a carrier, a pooled
// runtime coroutine that the kernel resumes and that yields back when the
// process blocks; at most one process executes at a time. All Proc methods
// except Name, ID and State must only be called from the process's own
// Func while it is running — except Kill, which is called by another
// running process.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	fn    Func
	state State
	c     *carrier // set from the first resume until the process ends

	parent      *Proc
	joinsParent bool // true for Par children: completion decrements parent's join count
	pendingKids int
	children    []*Proc

	// Blocking bookkeeping: events the process is registered on, the
	// pending timeout's timer id plus one (0 if none), and wake-up
	// results.
	waitEvents []*Event
	timer      int
	wokenBy    *Event
	timedOut   bool

	daemon bool // daemons don't keep the simulation alive
	killed bool // resumed by Kill: unwind, and yield back to the killer
}

// SetDaemon marks the process as a daemon: a simulation that has only
// daemon processes left (e.g. interrupt-service loops waiting for events
// that will never come) terminates normally instead of reporting a
// deadlock.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Daemon reports whether the process is marked as a daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// ID returns the process's unique, creation-ordered identifier.
func (p *Proc) ID() int { return p.id }

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// State returns the process's current scheduling state.
func (p *Proc) State() State { return p.state }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.now }

// ended reports whether the process has finished or been killed.
func (p *Proc) ended() bool { return p.state == StateDone || p.state == StateKilled }

// run executes the process body on its carrier and returns the hand-off
// its carrier yields once it has ended: the next process to run, or nil.
// A user panic is recorded for the kernel to re-raise on the Run caller.
// A body that calls runtime.Goexit ends its carrier's coroutine, and
// iter.Pull passes the Goexit on to whoever resumed it, so nothing is
// picked to run next.
func (p *Proc) run() (h *Proc) {
	returned := false
	defer func() {
		r := recover()
		p.state = StateDone
		if _, ok := r.(killedSignal); ok {
			p.state = StateKilled
		} else if r != nil {
			p.k.panicked = r
		}
		p.exit()
		if (returned || r != nil) && !p.killed {
			h = p.k.pick() // a finished process is never the next runnable
		}
	}()
	p.state = StateRunning
	p.fn(p)
	returned = true
	return nil
}

// exit performs end-of-life bookkeeping.
func (p *Proc) exit() {
	p.k.active--
	if p.parent != nil && p.joinsParent {
		p.parent.pendingKids--
		if p.parent.pendingKids == 0 && p.parent.state == StateWaitChildren {
			p.k.enqueueNext(p.parent)
		}
	}
}

// yieldToKernel gives up the CPU and blocks until this process is resumed.
// Must be called with p.state already updated to the blocking state. The
// process computes the next runnable process — in this delta cycle, a
// later one, or after a time advance — and yields it to the kernel loop
// as the hand-off, or nil when control goes back to the Run caller. When
// the next runnable is this process itself, execution continues without
// a switch at all. Panics with killedSignal if the process was resumed by
// Kill.
func (p *Proc) yieldToKernel() {
	k := p.k
	h := k.pick()
	if h == p {
		// Fast path: this process's own wake-up (timer, delta yield) was the
		// next runnable work. No kill check needed — kills only originate
		// from process code, and none ran in between.
		k.Steps++
		p.state = StateRunning
		return
	}
	p.c.yield(h)
	if p.killed {
		panic(killedSignal{})
	}
	p.state = StateRunning
}

// WaitFor suspends the process for duration d of simulated time (SpecC's
// waitfor). A non-positive d yields into the next delta cycle instead.
func (p *Proc) WaitFor(d Time) {
	if d <= 0 {
		p.YieldDelta()
		return
	}
	p.timer = p.k.addTimer(p.k.now+d, p, nil) + 1
	p.state = StateWaitTime
	p.yieldToKernel()
}

// YieldDelta makes the process runnable again in the next delta cycle of
// the current time step, letting all other currently-ready processes run
// first.
func (p *Proc) YieldDelta() {
	p.state = StateReady
	p.k.enqueueNext(p)
	p.yieldToKernel()
}

// Wait blocks until e is notified (SpecC's wait).
func (p *Proc) Wait(e *Event) {
	p.waitEvents = append(p.waitEvents[:0], e)
	e.addWaiter(p)
	p.state = StateWaitEvent
	p.yieldToKernel()
	p.waitEvents = p.waitEvents[:0]
}

// WaitAny blocks until any one of the given events is notified and returns
// the event that woke the process.
func (p *Proc) WaitAny(events ...*Event) *Event {
	if len(events) == 0 {
		panic("sim: WaitAny with no events")
	}
	p.waitEvents = append(p.waitEvents[:0], events...)
	for _, e := range events {
		e.addWaiter(p)
	}
	p.state = StateWaitEvent
	p.yieldToKernel()
	p.waitEvents = p.waitEvents[:0]
	return p.wokenBy
}

// WaitTimeout blocks until e is notified or d elapses, whichever comes
// first. It reports whether the event fired (true) or the wait timed out
// (false). A non-positive d times out after one delta-cycle yield if the
// event is not notified in the meantime.
func (p *Proc) WaitTimeout(e *Event, d Time) bool {
	p.waitEvents = append(p.waitEvents[:0], e)
	e.addWaiter(p)
	p.timer = p.k.addTimer(p.k.now+max(d, 0), p, nil) + 1
	p.state = StateWaitTimeout
	p.yieldToKernel()
	p.waitEvents = p.waitEvents[:0]
	return !p.timedOut
}

// Notify notifies event e: every process currently waiting on e becomes
// runnable in the next delta cycle (SpecC's notify). A notification with
// no waiters is lost.
func (p *Proc) Notify(e *Event) {
	e.flush()
}

// NotifyAfter schedules a notification of e at now+d without blocking the
// caller. It is the kernel-level mechanism behind modeled interrupts and
// timeouts. A non-positive d behaves like Notify at the next time step.
func (p *Proc) NotifyAfter(e *Event, d Time) {
	p.k.addTimer(p.k.now+max(d, 0), nil, e)
}

// Spawn creates a detached child process that starts in the next delta
// cycle. Detached children are not joined by Par; they are, however,
// killed recursively if this process is killed.
func (p *Proc) Spawn(name string, fn Func) *Proc {
	c := p.k.newProc(name, fn, p)
	p.children = append(p.children, c)
	p.k.enqueueNext(c)
	return c
}

// Par runs the given functions as concurrent child processes and blocks
// until all of them have terminated (SpecC's par statement). Children are
// started in argument order in the next delta cycle.
func (p *Proc) Par(fns ...Func) {
	p.ParNamed(nil, fns...)
}

// ParNamed is Par with explicit child names; names may be nil or shorter
// than fns, in which case defaults of the form "parent.N" are used.
func (p *Proc) ParNamed(names []string, fns ...Func) {
	if len(fns) == 0 {
		return
	}
	for i, fn := range fns {
		var name string
		if i < len(names) {
			name = names[i]
		}
		if name == "" {
			name = fmt.Sprintf("%s.%d", p.name, i)
		}
		c := p.k.newProc(name, fn, p)
		c.joinsParent = true
		p.children = append(p.children, c)
		p.pendingKids++
		p.k.enqueueNext(c)
	}
	p.state = StateWaitChildren
	p.yieldToKernel()
}

// Kill forcibly terminates the target process and, recursively, all of its
// children. The target is resumed and unwound through its current
// blocking primitive; deferred functions in the target run as usual and
// must not block on simulation primitives. Killing self
// unwinds the caller immediately. Killing an already-finished process is a
// no-op.
func (p *Proc) Kill(target *Proc) {
	p.k.kill(target, p)
}

// Stop ends the simulation: the kernel loop exits after the calling
// process yields. Remaining processes are left in place (Run reports how
// many were still live).
func (p *Proc) Stop() {
	p.k.stopped = true
}

// wakeFromEvent transitions a process blocked on events back to ready,
// cancelling its other registrations (other WaitAny events, timeout
// timer). Called by Event.flush.
func (p *Proc) wakeFromEvent(e *Event) {
	for _, other := range p.waitEvents {
		if other != e {
			other.removeWaiter(p)
		}
	}
	p.k.cancelTimer(p)
	p.wokenBy = e
	p.timedOut = false
	p.state = StateReady
	p.k.enqueueNext(p)
}

// wakeFromTimer transitions a process blocked in WaitFor/WaitTimeout back
// to ready when its timer fires. Called by the kernel loop.
func (p *Proc) wakeFromTimer() {
	for _, e := range p.waitEvents {
		e.removeWaiter(p)
	}
	p.timer = 0
	p.wokenBy = nil
	p.timedOut = true
	p.state = StateReady
	p.k.enqueueReady(p)
}

func (p *Proc) String() string {
	return fmt.Sprintf("proc %d %q (%s)", p.id, p.name, p.state)
}
