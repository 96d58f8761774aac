package rtc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Time aliases the simulation time type so workloads move between the
// two engines without conversion.
type Time = sim.Time

// mState is the coroutine-level machine state (distinct from the RTOS
// task state). A blocked machine's state alone says what it waits for:
// each wait the engine models has one waiter, so it keeps no waiter
// lists.
type mState uint8

const (
	mCreated mState = iota
	mReady
	mRunning
	// mWaitEvent: a task's machine parked in fWaitDispatched until the
	// scheduler dispatches its task (osState.wake), or an SDL ISR
	// machine waiting on its pending latch (fStimBody's raise).
	mWaitEvent
	mWaitTime // blocked on a timer (sim.Proc.WaitFor)
	// mWaitTimeout: a segmented delay (fTimeWait at pc 11) that ends at
	// its timer or when decideFrom interrupts it for a preferred task.
	mWaitTimeout
	mDone
	// mWaitChildren (blocked in a par fork until every child machine
	// finishes, sim's StateWaitChildren) is appended after mDone so the
	// numeric values of the pre-existing states, which rtcsnap
	// checkpoints encode, stay stable.
	mWaitChildren
)

// status is a frame step's verdict: the frame finished, it pushed a
// child frame, or the machine blocked and control returns to the
// scheduler loop.
type status uint8

const (
	statDone status = iota
	statCall
	statBlocked
)

// frame is one resumable segment of a machine's call stack. step runs
// until the frame completes, calls into a child frame, or blocks; on
// re-entry after a block the frame's program counter field resumes it
// past the blocking point.
type frame interface {
	step(m *machine) status
}

// kernel is the run-to-completion simulation core: the same delta-cycle
// and timer microstructure as sim.Kernel, but machines resume by a plain
// method call on one goroutine instead of a channel rendezvous per
// context switch.
type kernel struct {
	now   Time
	delta uint64

	ready   []*machine // runnable in the current delta cycle, FIFO
	readyAt int        // consumption index into ready
	next    []*machine // runnable in the next delta cycle, FIFO

	// timers holds each machine's pending timeout under the machine's
	// index in machines; a machine has at most one.
	timers   sim.Timers
	timerSeq int

	machines []*machine
	active   int
	stopped  bool
	failure  error
	limit    Time

	// os is the RTOS model on this kernel; a run that stalls asks it for
	// a diagnosis before reporting a plain deadlock.
	os *osState

	machSlab slab[machine]
}

// init prepares an empty kernel for a build that spawns machines
// machines and creates tasks tasks: the machine slab, the timer queue
// and the scheduling queues are sized for them up front, so the build
// and the run's steady state allocate nothing per machine. The machine
// table, the ready and next FIFOs and the OS state's task-to-machine
// binding table, which init returns empty, share one allocation.
// Runtime forks beyond those counts still work; they grow the slab and
// the tables on demand.
func (k *kernel) init(os *osState, machines, tasks int) []*machine {
	k.os = os
	k.timers.Reserve(machines)
	k.machSlab.reserve(machines)
	tables := make([]*machine, 3*machines+tasks)
	m := machines
	k.machines = tables[:0:m]
	k.ready = tables[m : m : 2*m]
	k.next = tables[2*m : 2*m : 3*m]
	return tables[3*m : 3*m]
}

// slab hands out zeroed values of T from shared chunks. A build reserves
// one chunk for the objects it is about to create (a par fork reserves
// one for its children), and take starts a new chunk only when the
// current one is used up — one allocation per object class instead of
// one per object.
type slab[T any] struct{ free []T }

// reserve makes sure the current chunk has room for n more values,
// replacing it with a chunk of exactly n if it does not.
func (s *slab[T]) reserve(n int) {
	if len(s.free) < n {
		s.free = make([]T, n)
	}
}

func (s *slab[T]) take() *T {
	s.reserve(1)
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// machine is one resumable control flow: the engine's replacement for a
// simulation process goroutine. Its stack of frames encodes the exact
// call structure the goroutine kernel's task bodies and OS services
// have, so the two engines take identical scheduling decisions. The
// embedded frames of the blocking services are reused across calls — a
// machine executes sequentially, so each frame type is on its stack at
// most once.
type machine struct {
	k    *kernel
	id   int // index in k.machines, and the id of the machine's timer
	name string
	task *core.Task // nil for ISR and watchdog machines

	stack []frame

	// par fork/join bookkeeping (sim.Proc.parent/pendingKids): a child
	// machine's finish decrements its parent's count and wakes the parent
	// once the last child is done.
	parent      *machine
	pendingKids int

	// Preallocated frames of the services that block (zero-alloc steady
	// state).
	fAct fActivate
	fEnd fEndCycle
	fTW  fTimeWait
	fWD  fWaitDispatched
	fOp  opFrame

	// Inline backing for stack. A flat task body nests at most three
	// frames (body, service frame, one nested service call), so its stack
	// never reallocates; SDL behavior trees nest deeper and grow theirs by
	// append.
	stackBuf [3]frame

	state  mState
	daemon bool
	// timedOut: the last wake from mWaitTimeout was the timer's, not an
	// interrupt's.
	timedOut bool
}

// newMachine takes a machine from the slab with body as its initial
// stack and registers it as live.
func (k *kernel) newMachine(name string, body frame) *machine {
	m := k.machSlab.take()
	m.k, m.id, m.name, m.state = k, len(k.machines), name, mCreated
	m.stack = append(m.stackBuf[:0], body)
	k.machines = append(k.machines, m)
	k.active++
	return m
}

// spawn creates a machine whose initial stack is the given body frame.
// Like sim.Kernel.Spawn it enters the current delta cycle, so machines
// spawned before the run start at time zero in creation order.
func (k *kernel) spawn(name string, body frame, daemon bool) *machine {
	m := k.newMachine(name, body)
	m.daemon = daemon
	k.enqueueReady(m)
	return m
}

// spawnNext creates a child machine that joins parent and enters the
// *next* delta cycle — sim.Proc.ParNamed's fork: children forked at one
// instant all activate in the following delta, in creation order.
func (k *kernel) spawnNext(name string, body frame, parent *machine) *machine {
	m := k.newMachine(name, body)
	m.parent = parent
	k.enqueueNext(m)
	return m
}

func (k *kernel) enqueueReady(m *machine) { k.ready = append(k.ready, m) }
func (k *kernel) enqueueNext(m *machine)  { k.next = append(k.next, m) }

func (k *kernel) popReady() *machine {
	if k.readyAt >= len(k.ready) {
		return nil
	}
	// No nil write: every machine is retained by k.machines for the
	// session's lifetime, so a stale slot cannot leak anything.
	m := k.ready[k.readyAt]
	k.readyAt++
	if k.readyAt == len(k.ready) {
		k.ready = k.ready[:0]
		k.readyAt = 0
	}
	return m
}

// nextRunnable advances delta cycles and simulated time exactly like
// sim.Kernel.nextRunnable: drain the current delta, swap in the next,
// then fire the earliest timers within the horizon.
func (k *kernel) nextRunnable() *machine {
	for {
		if m := k.popReady(); m != nil {
			return m
		}
		if len(k.next) > 0 {
			k.ready, k.next = k.next, k.ready[:0]
			k.readyAt = 0
			k.delta++
			continue
		}
		t, ok := k.timers.Next()
		if !ok || t > k.limit {
			return nil
		}
		k.now = t
		k.delta = 0
		k.fireTimers(t)
	}
}

// fireTimers wakes every machine whose timer is due at exactly t, in
// (at, seq) order — the order sim.Kernel fires its own queue in.
func (k *kernel) fireTimers(t Time) {
	for {
		id, ok := k.timers.PopDue(t)
		if !ok {
			return
		}
		k.machines[id].wakeFromTimer()
	}
}

// addTimer queues m's timeout, due at at.
func (k *kernel) addTimer(at Time, m *machine) {
	k.timerSeq++
	k.timers.Push(m.id, at, k.timerSeq)
}

// fail stops the run with err; the first failure wins (sim.Kernel.Fail).
func (k *kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
	k.stopped = true
}

// runUntil executes up to and including limit, mirroring
// sim.Kernel.RunUntil's epilogue: a Fail error, then the horizon check,
// then stall diagnosis over the live (non-daemon, unfinished) machines.
func (k *kernel) runUntil(limit Time) error {
	k.limit = limit
	for !k.stopped {
		m := k.nextRunnable()
		if m == nil {
			break
		}
		m.state = mRunning
		m.exec()
	}
	if k.stopped {
		return k.failure
	}
	if t, ok := k.timers.Next(); ok && t > limit {
		return nil // horizon reached; state preserved
	}
	live := 0
	for _, m := range k.machines {
		if !m.daemon && m.state != mDone {
			live++
		}
	}
	if live > 0 {
		if d := k.os.DiagnoseStall(k.now, k.os.daemon); d != nil {
			k.os.RecordDiagnosis(d)
			return d
		}
		return fmt.Errorf("rtc: deadlock at %s: %d machines blocked with no pending timer", k.now, live)
	}
	return nil
}

// exec resumes the machine's top frame and keeps stepping until the
// machine blocks or its stack drains — the run-to-completion core: a
// context switch is this function returning and the scheduler loop
// calling exec on the next machine. No channel operations, no
// goroutine handoff.
func (m *machine) exec() {
	for {
		n := len(m.stack)
		if n == 0 {
			m.finish()
			return
		}
		switch m.stack[n-1].step(m) {
		case statDone:
			// Popped without a nil write: every frame that ever sits on the
			// stack is preallocated and retained by the machine or session,
			// so a stale slot past len retains nothing extra.
			m.stack = m.stack[:n-1]
		case statCall:
			// child frame pushed or tail-called, or the frame asked to be
			// re-stepped; step the top frame next
		case statBlocked:
			return
		}
	}
}

func (m *machine) finish() {
	m.state = mDone
	m.k.active--
	if p := m.parent; p != nil {
		p.pendingKids--
		if p.pendingKids == 0 && p.state == mWaitChildren {
			// Last child done: the parent re-enters the next delta cycle
			// (sim.Proc.finish's join wake).
			m.k.enqueueNext(p)
		}
	}
}

func (m *machine) push(f frame) status {
	m.stack = append(m.stack, f)
	return statCall
}

// tailcall replaces the calling frame with f: a frame whose last action
// is a child call returns this instead of push, saving the pop and the
// no-op re-entry step. The caller is never stepped again.
func (m *machine) tailcall(f frame) status {
	m.stack[len(m.stack)-1] = f
	return statCall
}

// sleep blocks the machine for d (sim.Proc.WaitFor): a non-positive d
// yields into the next delta cycle instead. The calling frame must
// return statBlocked immediately after.
func (m *machine) sleep(d Time) {
	if d <= 0 {
		m.yieldDelta()
		return
	}
	m.k.addTimer(m.k.now+d, m)
	m.state = mWaitTime
}

// yieldDelta re-queues the machine into the next delta cycle
// (sim.Proc.YieldDelta).
func (m *machine) yieldDelta() {
	m.state = mReady
	m.k.enqueueNext(m)
}

// waitTimeout blocks the machine for at most d (sim.Proc.WaitTimeout on
// the task's preempt event): the timer or an interrupt, whichever comes
// first, ends the wait, and !m.timedOut then reports an interrupt.
func (m *machine) waitTimeout(d Time) {
	if d < 0 {
		d = 0
	}
	m.k.addTimer(m.k.now+d, m)
	m.state = mWaitTimeout
}

// wakeFromTimer mirrors sim.Proc.wakeFromTimer: the machine re-enters
// the *current* delta cycle.
func (m *machine) wakeFromTimer() {
	m.timedOut = true
	m.state = mReady
	m.k.enqueueReady(m)
}

// wakeFromEvent mirrors sim.Proc.wakeFromEvent: the machine re-enters
// the *next* delta cycle, cancelling its timer if it has one.
func (m *machine) wakeFromEvent() {
	m.k.timers.Cancel(m.id)
	m.timedOut = false
	m.state = mReady
	m.k.enqueueNext(m)
}
