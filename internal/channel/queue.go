package channel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Queue is a bounded FIFO message channel — the paper's c_queue example
// (Figure 7). Send blocks while the queue is full; Recv blocks while it is
// empty. The element type is generic; models typically move frame or
// sample buffers.
//
// Elements sit in a Ring bounded by the capacity, so memory follows the
// peak occupancy rather than the declared capacity, and steady-state
// traffic does not allocate.
type Queue[T any] struct {
	Ring[T]
	name     string
	cond     Cond // single condition: senders and receivers re-check state
	capacity int
	res      *core.Resource

	sent, received uint64
}

// NewQueue creates a queue with the given capacity (at least 1).
func NewQueue[T any](f Factory, name string, capacity int) *Queue[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("channel: queue %q capacity %d < 1", name, capacity))
	}
	return &Queue[T]{Ring: NewRing[T](capacity), name: name, cond: f.NewCond(name + ".q"),
		capacity: capacity, res: monitored(f, name, "queue", false)}
}

// Name returns the queue's name.
func (q *Queue[T]) Name() string { return q.name }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return q.capacity }

// Sent returns the total number of elements accepted by Send.
func (q *Queue[T]) Sent() uint64 { return q.sent }

// Received returns the total number of elements returned by Recv.
func (q *Queue[T]) Received() uint64 { return q.received }

// Send enqueues v, blocking while the queue is full.
func (q *Queue[T]) Send(p *sim.Proc, v T) {
	if q.n == q.capacity {
		q.res.Block(p)
		for q.n == q.capacity {
			q.cond.Wait(p)
		}
		q.res.Unblock(p)
	}
	q.push(v)
	q.cond.Notify(p)
}

// TrySend enqueues v if space is available and reports success.
func (q *Queue[T]) TrySend(p *sim.Proc, v T) bool {
	if q.n == q.capacity {
		return false
	}
	q.push(v)
	q.cond.Notify(p)
	return true
}

// Recv dequeues the oldest element, blocking while the queue is empty.
func (q *Queue[T]) Recv(p *sim.Proc) T {
	if q.n == 0 {
		q.res.Block(p)
		for q.n == 0 {
			q.cond.Wait(p)
		}
		q.res.Unblock(p)
	}
	v := q.pop()
	q.cond.Notify(p)
	return v
}

// TryRecv dequeues if an element is available.
func (q *Queue[T]) TryRecv(p *sim.Proc) (T, bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	v := q.pop()
	q.cond.Notify(p)
	return v, true
}

// push appends v; the caller has checked that the queue is not full.
func (q *Queue[T]) push(v T) {
	q.Push(v)
	q.sent++
}

// pop removes the oldest element; the caller has checked that the queue
// is not empty.
func (q *Queue[T]) pop() T {
	q.received++
	return q.Pop()
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
		res: monitored(f, name, "rendezvous", false)}
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
