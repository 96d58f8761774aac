package core

import "repro/internal/sim"

// ChanOp is an operation on a channel primitive: queues take
// OpSend/OpRecv, semaphores OpAcquire/OpRelease, handshakes
// OpSignal/OpWait.
type ChanOp uint8

// Channel operations.
const (
	OpSend ChanOp = iota
	OpRecv
	OpAcquire
	OpRelease
	OpSignal
	OpWait
)

// Channel is one channel primitive's state and transitions — a queue,
// semaphore, mailbox or handshake of some personality — shared by both
// execution engines, which only block, wake and notify as told. The
// object also states its own checkpoint encoding.
type Channel interface {
	// Step performs op for task t (nil: an interrupt handler) at now and
	// never blocks. again marks the attempt after a wait the previous
	// verdict asked for. val is the message OpSend sends; Step returns it,
	// or the message OpRecv received.
	Step(now sim.Time, t *Task, op ChanOp, val int64, again bool) (int64, Verdict)
	State(c *StateCodec)
}

// Verdict is what a transition leaves the engine to do; the zero Verdict
// means nothing.
type Verdict struct {
	// Wait: t waits on the object's condition, then steps again.
	Wait bool
	// Suspend: t is suspended at this site until a transition hands it
	// its grant and wakes it; it then steps again to collect it.
	Suspend string
	// Notify: notify the object's condition, whose waiters re-check.
	Notify bool
	// Wake: resume this waiter, which was handed a grant.
	Wake *Task
	// Err ends the run (a µITRON service error such as E_QOVR).
	Err error
}
