package channel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// QueueState is a bounded FIFO's state and transitions (see
// core.Channel), shared by both execution engines: a send into a full
// queue or a receive from an empty one waits on the queue's condition and
// re-checks after every wake-up. Elements sit in a Ring bounded by the
// capacity, so memory follows the peak occupancy rather than the declared
// capacity, and steady-state traffic does not allocate.
type QueueState[T any] struct {
	Ring[T]
	capacity int
	res      *core.Resource
}

// ValidateQueue rejects a queue capacity below 1, naming the channel: the
// rule every personality and front end applies.
func ValidateQueue(name string, capacity int) error {
	if capacity < 1 {
		return fmt.Errorf("channel: queue %q capacity %d < 1", name, capacity)
	}
	return nil
}

// NewQueueState validates the capacity and registers the queue with the
// monitor m (nil: untracked).
func NewQueueState[T any](m *core.Monitor, name string, capacity int) (QueueState[T], error) {
	if err := ValidateQueue(name, capacity); err != nil {
		return QueueState[T]{}, err
	}
	return QueueState[T]{Ring: NewRing[T](capacity), capacity: capacity,
		res: m.NewResource(name, "queue", false)}, nil
}

// Cap returns the queue capacity.
func (q *QueueState[T]) Cap() int { return q.capacity }

// Put enqueues v if the queue has room.
func (q *QueueState[T]) Put(v T) bool {
	if q.n == q.capacity {
		return false
	}
	q.Push(v)
	return true
}

// Take dequeues the oldest element if there is one.
func (q *QueueState[T]) Take() (T, bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.Pop(), true
}

// Step performs OpSend or OpRecv for task t.
func (q *QueueState[T]) Step(now sim.Time, t *core.Task, op core.ChanOp, val T, again bool) (T, core.Verdict) {
	ok := false
	if op == core.OpSend {
		ok = q.Put(val)
	} else {
		val, ok = q.Take()
	}
	switch {
	case ok && again:
		q.res.UnblockTask(t)
	case !ok && !again:
		q.res.BlockTask(now, t)
	}
	return val, core.Verdict{Wait: !ok, Notify: ok}
}

// State writes or reads the buffered elements for a checkpoint.
func (q *QueueState[T]) State(c *core.StateCodec) { q.Ring.State(c, "cq") }

// Queue is a bounded FIFO message channel — the paper's c_queue example
// (Figure 7). Send blocks while the queue is full; Recv blocks while it is
// empty. The element type is generic; models typically move frame or
// sample buffers.
type Queue[T any] struct {
	QueueState[T]
	name string
	cond Cond // single condition: senders and receivers re-check state

	sent, received uint64
}

// NewQueue creates a queue with the given capacity (at least 1).
func NewQueue[T any](f Factory, name string, capacity int) *Queue[T] {
	st, err := NewQueueState[T](monitorOf(f), name, capacity)
	if err != nil {
		panic(err.Error())
	}
	return &Queue[T]{QueueState: st, name: name, cond: f.NewCond(name + ".q")}
}

// Name returns the queue's name.
func (q *Queue[T]) Name() string { return q.name }

// Sent returns the total number of elements accepted by Send.
func (q *Queue[T]) Sent() uint64 { return q.sent }

// Received returns the total number of elements returned by Recv.
func (q *Queue[T]) Received() uint64 { return q.received }

// Send enqueues v, blocking while the queue is full.
func (q *Queue[T]) Send(p *sim.Proc, v T) {
	if !q.TrySend(p, v) {
		q.await(p, core.OpSend, v)
		q.sent++
	}
}

// TrySend enqueues v if space is available and reports success.
func (q *Queue[T]) TrySend(p *sim.Proc, v T) bool {
	if !q.Put(v) {
		return false
	}
	q.sent++
	q.cond.Notify(p)
	return true
}

// Recv dequeues the oldest element, blocking while the queue is empty.
func (q *Queue[T]) Recv(p *sim.Proc) T {
	v, ok := q.TryRecv(p)
	if !ok {
		v = q.await(p, core.OpRecv, v)
		q.received++
	}
	return v
}

// await is the blocking path of Send and Recv (a queue with room or an
// element takes the Try path): step op until the queue stops asking to
// wait on the condition, then notify it.
func (q *Queue[T]) await(p *sim.Proc, op core.ChanOp, v T) T {
	t := q.res.TaskOf(p)
	for again := false; ; again = true {
		got, vd := q.Step(p.Now(), t, op, v, again)
		if !vd.Wait {
			q.cond.Notify(p)
			return got
		}
		q.cond.Wait(p)
	}
}

// TryRecv dequeues if an element is available.
func (q *Queue[T]) TryRecv(p *sim.Proc) (T, bool) {
	v, ok := q.Take()
	if ok {
		q.received++
		q.cond.Notify(p)
	}
	return v, ok
}

// Mailbox is an unbuffered rendezvous channel: Send blocks until a
// receiver has taken the value, pairing one sender with one receiver in
// FIFO order.
type Mailbox[T any] struct {
	name string
	cond Cond
	full bool
	data T
	acks int // completed transfers awaiting sender wake-up
	res  *core.Resource
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any](f Factory, name string) *Mailbox[T] {
	return &Mailbox[T]{name: name, cond: f.NewCond(name + ".mbox"),
		res: monitorOf(f).NewResource(name, "rendezvous", false)}
}

// Name returns the mailbox's name.
func (m *Mailbox[T]) Name() string { return m.name }

// Send transfers v to exactly one receiver and returns only after the
// receiver has taken it (rendezvous semantics).
func (m *Mailbox[T]) Send(p *sim.Proc, v T) {
	if m.full {
		m.res.Block(p)
		for m.full {
			m.cond.Wait(p) // another sender's value still in the slot
		}
		m.res.Unblock(p)
	}
	m.full = true
	m.data = v
	m.cond.Notify(p)
	if m.acks == 0 {
		m.res.Block(p)
		for m.acks == 0 {
			m.cond.Wait(p)
		}
		m.res.Unblock(p)
	}
	m.acks--
}

// Recv blocks until a sender provides a value and returns it.
func (m *Mailbox[T]) Recv(p *sim.Proc) T {
	if !m.full {
		m.res.Block(p)
		for !m.full {
			m.cond.Wait(p)
		}
		m.res.Unblock(p)
	}
	v := m.data
	var zero T
	m.data = zero
	m.full = false
	m.acks++
	m.cond.Notify(p)
	return v
}
