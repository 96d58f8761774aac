package itron

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Msg is a mailbox message: a payload word plus a message priority used
// by TA_MPRI mailboxes (µITRON passes T_MSG headers by reference; the
// model carries the payload by value).
type Msg struct {
	Val int64
	Pri int
}

// Mailbox is a µITRON mailbox (cre_mbx/snd_mbx/rcv_mbx): an unbounded
// message queue, FIFO or message-priority ordered. snd_mbx never blocks;
// rcv_mbx blocks while the box is empty. A send with waiters is a direct
// handoff to the head of the wait queue, through the waiter's tcb. Its
// Step is the core.Channel both execution engines drive (priority-0
// messages, receives waiting forever); the service calls add message
// priorities, timeouts and forced releases on the goroutine kernel.
type Mailbox struct {
	k    *Kernel
	name string
	site string
	attr Attr
	msgs []Msg
	wq   waitQueue
	res  *core.Resource
}

// CreMbx creates a mailbox (cre_mbx).
func (k *Kernel) CreMbx(name string, attr Attr) (*Mailbox, ER) {
	return &Mailbox{k: k, name: name, site: "mailbox:" + name, attr: attr,
		wq:  newWaitQueue(attr),
		res: k.s.Monitor().NewResource(name, "mailbox", false)}, EOK
}

// Name returns the mailbox's name.
func (m *Mailbox) Name() string { return m.name }

// Len returns the number of queued messages (ref_mbx snapshot).
func (m *Mailbox) Len() int { return len(m.msgs) }

// Step performs OpSend (snd_mbx) or OpRecv (rcv_mbx) for task t.
func (m *Mailbox) Step(now sim.Time, t *core.Task, op core.ChanOp, val int64, again bool) (int64, core.Verdict) {
	switch {
	case op == core.OpSend:
		return val, core.Verdict{Wake: m.send(t, Msg{Val: val})}
	case again: // a send left the message in t's tcb
		return m.received(t).Val, core.Verdict{}
	}
	msg, ok := m.take(t)
	if !ok {
		m.wq.enqueue(m.k.tcbOf(t))
		m.res.BlockTask(now, t)
		return val, core.Verdict{Suspend: m.site}
	}
	return msg.Val, core.Verdict{}
}

// send queues msg for task t (nil: an interrupt handler), or hands it to
// the head waiter's tcb and returns that waiter to be resumed. Under
// TA_MPRI the queue is ordered by ascending Pri (smaller = higher) with
// FIFO tie-break.
func (m *Mailbox) send(t *core.Task, msg Msg) *core.Task {
	m.res.ReleaseTask(t)
	if tc := m.wq.pop(); tc != nil {
		tc.msg = msg
		return tc.task
	}
	i := len(m.msgs)
	if m.attr&TAMPri != 0 {
		for j, x := range m.msgs {
			if x.Pri > msg.Pri {
				i = j
				break
			}
		}
	}
	m.msgs = append(m.msgs, Msg{})
	copy(m.msgs[i+1:], m.msgs[i:])
	m.msgs[i] = msg
	return nil
}

func (m *Mailbox) take(t *core.Task) (Msg, bool) {
	if len(m.msgs) == 0 {
		return Msg{}, false
	}
	msg := m.msgs[0]
	copy(m.msgs, m.msgs[1:])
	m.msgs = m.msgs[:len(m.msgs)-1]
	m.res.AcquireTask(t)
	return msg, true
}

// received collects the message a send handed to the resumed waiter t.
func (m *Mailbox) received(t *core.Task) Msg {
	m.res.AcquireTask(t)
	tc := m.k.tcbOf(t)
	msg := tc.msg
	tc.msg = Msg{}
	return msg
}

// State writes or reads the queued messages as (value, priority) pairs
// and the wait queue for a checkpoint.
func (m *Mailbox) State(c *core.StateCodec) {
	msgs := make([]int64, 0, 2*len(m.msgs))
	for _, msg := range m.msgs {
		msgs = append(msgs, msg.Val, int64(msg.Pri))
	}
	core.List(c, "imm", &msgs)
	if len(msgs)%2 != 0 {
		c.Failf("imm list of %d values is not a list of pairs", len(msgs))
	}
	if c.Restoring() {
		m.msgs = m.msgs[:0]
		for i := 0; i < len(msgs); i += 2 {
			m.msgs = append(m.msgs, Msg{Val: msgs[i], Pri: int(msgs[i+1])})
		}
	}
	m.k.waiters(c, "imw", &m.wq)
}

// Snd sends a message (snd_mbx). Never blocks: with a waiter present the
// message is handed over directly; otherwise it is queued. Callable from
// ISRs.
func (m *Mailbox) Snd(p *sim.Proc, msg Msg) ER {
	if t := m.send(m.res.TaskOf(p), msg); t != nil {
		m.k.os.Resume(p, t)
	}
	return EOK
}

// Rcv receives a message, waiting forever while the box is empty
// (rcv_mbx).
func (m *Mailbox) Rcv(p *sim.Proc) (Msg, ER) { return m.TRcv(p, TMOFevr) }

// Pol receives without waiting (prcv_mbx): E_TMOUT when empty.
func (m *Mailbox) Pol(p *sim.Proc) (Msg, ER) { return m.TRcv(p, TMOPol) }

// TRcv receives with a timeout (trcv_mbx): E_TMOUT on expiry, E_RLWAI
// when released forcibly.
func (m *Mailbox) TRcv(p *sim.Proc, tmo sim.Time) (Msg, ER) {
	tc, er := m.k.self(p)
	if er != EOK {
		return Msg{}, er
	}
	if msg, ok := m.take(tc.task); ok {
		return msg, EOK
	}
	if tmo == TMOPol {
		return Msg{}, ETMOUT
	}
	m.Step(p.Now(), tc.task, core.OpRecv, 0, false) // queues tc: the box is empty
	woken := m.k.os.SuspendTimeout(p, core.TaskWaitingEvent, m.site, tmo,
		func() { m.wq.remove(tc) })
	if tc.relwai {
		tc.relwai = false
		m.res.Unblock(p)
		return Msg{}, ERLWAI
	}
	if !woken {
		m.res.Unblock(p)
		return Msg{}, ETMOUT
	}
	return m.received(tc.task), EOK
}
