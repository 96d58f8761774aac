package rtc

import (
	"repro/internal/channel"
	"repro/internal/core"
)

// rQueue and rSem are the engine-side channel interfaces. Each step
// method is a resumable state machine over an opFrame's pc, porting the
// corresponding personality's primitive call-for-call — including the
// exact ordering of monitor bookkeeping around each blocking point, so
// stall diagnoses stay identical across engines.
type rQueue interface {
	stepSend(m *machine, f *opFrame) status
	stepRecv(m *machine, f *opFrame) status
}

type rSem interface {
	stepAcquire(m *machine, f *opFrame) status
	stepRelease(m *machine, f *opFrame) status
}

type opKind uint8

const (
	opSend opKind = iota
	opRecv
	opAcquire
	opRelease
)

// opFrame is the single reusable channel-operation frame per machine;
// it dispatches to the bound channel's state machine.
type opFrame struct {
	kind opKind
	q    rQueue
	s    rSem
	v    int64
	ret  int64 // received value; an itron sender hands it over directly
	pc   int
}

func (f *opFrame) step(m *machine) status {
	switch f.kind {
	case opSend:
		return f.q.stepSend(m, f)
	case opRecv:
		return f.q.stepRecv(m, f)
	case opAcquire:
		return f.s.stepAcquire(m, f)
	default:
		return f.s.stepRelease(m, f)
	}
}

func (m *machine) callSend(q rQueue, v int64) status {
	m.fOp = opFrame{kind: opSend, q: q, v: v}
	return m.push(&m.fOp)
}

func (m *machine) callRecv(q rQueue) status {
	m.fOp = opFrame{kind: opRecv, q: q}
	return m.push(&m.fOp)
}

func (m *machine) callAcquire(s rSem) status {
	m.fOp = opFrame{kind: opAcquire, s: s}
	return m.push(&m.fOp)
}

func (m *machine) callRelease(s rSem) status {
	m.fOp = opFrame{kind: opRelease, s: s}
	return m.push(&m.fOp)
}

// --- generic personality (internal/channel over OS events) ---

// genQueue ports channel.Queue: a bounded buffer with one condition
// variable (an OS event named <name>.q) for both directions.
type genQueue struct {
	os       *osState
	cond     *core.OSEvent
	buf      channel.Ring[int64]
	capacity int
	res      *core.Resource
}

func newGenQueue(os *osState, name string, capacity int) *genQueue {
	return &genQueue{
		os:       os,
		cond:     core.NewOSEvent(name + ".q"),
		buf:      channel.NewRing[int64](capacity),
		capacity: capacity,
		res:      os.Monitor().NewResource(name, "queue", false),
	}
}

func (q *genQueue) stepSend(m *machine, f *opFrame) status {
	for {
		switch f.pc {
		case 0:
			if q.buf.Len() == q.capacity {
				q.res.BlockTask(q.os.k.now, m.task)
				f.pc = 1
				continue
			}
			f.pc = 3
		case 1: // cond-wait loop while full
			if q.buf.Len() == q.capacity {
				return m.callEventWait(q.cond, q.os)
			}
			f.pc = 2
		case 2:
			q.res.UnblockTask(m.task)
			f.pc = 3
		case 3:
			q.buf.Push(f.v)
			return m.tailEventNotify(q.cond, q.os)
		default:
			return statDone
		}
	}
}

func (q *genQueue) stepRecv(m *machine, f *opFrame) status {
	for {
		switch f.pc {
		case 0:
			if q.buf.Len() == 0 {
				q.res.BlockTask(q.os.k.now, m.task)
				f.pc = 1
				continue
			}
			f.pc = 3
		case 1: // cond-wait loop while empty
			if q.buf.Len() == 0 {
				return m.callEventWait(q.cond, q.os)
			}
			f.pc = 2
		case 2:
			q.res.UnblockTask(m.task)
			f.pc = 3
		case 3:
			f.ret = q.buf.Pop()
			return m.tailEventNotify(q.cond, q.os)
		default:
			return statDone
		}
	}
}

// genSem ports channel.Semaphore (note: like the original, Acquire
// never calls res.unblock — the monitor clears the edge on acquire).
type genSem struct {
	os    *osState
	cond  *core.OSEvent
	count int
	res   *core.Resource
}

func newGenSem(os *osState, name string, count int) *genSem {
	return &genSem{
		os:    os,
		cond:  core.NewOSEvent(name + ".sem"),
		count: count,
		res:   os.Monitor().NewResource(name, "semaphore", false),
	}
}

func (s *genSem) stepAcquire(m *machine, f *opFrame) status {
	for {
		switch f.pc {
		case 0:
			if s.count == 0 {
				s.res.BlockTask(s.os.k.now, m.task)
				f.pc = 1
				continue
			}
			f.pc = 2
		case 1:
			if s.count == 0 {
				return m.callEventWait(s.cond, s.os)
			}
			f.pc = 2
		case 2:
			s.count--
			s.res.AcquireTask(m.task)
			return statDone
		}
	}
}

func (s *genSem) stepRelease(m *machine, f *opFrame) status {
	s.count++
	s.res.ReleaseTask(m.task)
	return m.tailEventNotify(s.cond, s.os)
}

// --- ITRON personality (internal/personality/itron) ---

// itronSem ports itron.Semaphore: twai_sem with TMO_FEVR (a plain
// suspend) and an ISR-safe sig_sem with direct handoff to the oldest
// waiter, bypassing the counter.
type itronSem struct {
	os    *osState
	site  string
	count int
	max   int
	wq    []*core.Task
	res   *core.Resource
}

func newItronSem(os *osState, name string, count int) *itronSem {
	return &itronSem{
		os:    os,
		site:  "semaphore:" + name,
		count: count,
		max:   1<<31 - 1, // TMaxSemCnt
		res:   os.Monitor().NewResource(name, "semaphore", false),
	}
}

func (s *itronSem) stepAcquire(m *machine, f *opFrame) status {
	os := s.os
	switch f.pc {
	case 0:
		t := os.mustCurrent(m)
		if s.count > 0 {
			s.count--
			s.res.AcquireTask(m.task)
			return statDone
		}
		s.wq = append(s.wq, t)
		s.res.BlockTask(s.os.k.now, m.task)
		f.pc = 1
		return m.callSuspend(core.TaskWaitingEvent, s.site, os)
	default:
		s.res.AcquireTask(m.task) // direct handoff: the releaser skipped the counter
		return statDone
	}
}

func (s *itronSem) stepRelease(m *machine, f *opFrame) status {
	switch f.pc {
	case 0:
		s.res.ReleaseTask(m.task)
		if len(s.wq) > 0 {
			t := s.wq[0]
			copy(s.wq, s.wq[1:])
			s.wq[len(s.wq)-1] = nil
			s.wq = s.wq[:len(s.wq)-1]
			return m.tailResume(t, s.os)
		}
		if s.count < s.max {
			s.count++
		}
		return statDone
	default:
		return statDone
	}
}

// itronMailbox ports itron.Mailbox: snd_mbx never blocks (direct
// message handoff to the oldest waiter), rcv_mbx suspends when empty.
type itronMailbox struct {
	os   *osState
	site string
	msgs channel.Ring[int64]
	wq   []*core.Task
	res  *core.Resource
}

func newItronMailbox(os *osState, name string) *itronMailbox {
	return &itronMailbox{
		os:   os,
		site: "mailbox:" + name,
		res:  os.Monitor().NewResource(name, "mailbox", false),
	}
}

func (q *itronMailbox) stepSend(m *machine, f *opFrame) status {
	switch f.pc {
	case 0:
		q.res.ReleaseTask(m.task)
		if len(q.wq) > 0 {
			t := q.wq[0]
			copy(q.wq, q.wq[1:])
			q.wq[len(q.wq)-1] = nil
			q.wq = q.wq[:len(q.wq)-1]
			// Direct handoff into the waiting receiver's op frame.
			q.os.tasks[t.ID()].fOp.ret = f.v
			return m.tailResume(t, q.os)
		}
		q.msgs.Push(f.v)
		return statDone
	default:
		return statDone
	}
}

func (q *itronMailbox) stepRecv(m *machine, f *opFrame) status {
	os := q.os
	switch f.pc {
	case 0:
		t := os.mustCurrent(m)
		if q.msgs.Len() > 0 {
			f.ret = q.msgs.Pop()
			q.res.AcquireTask(m.task)
			return statDone
		}
		q.wq = append(q.wq, t)
		q.res.BlockTask(q.os.k.now, m.task)
		f.pc = 1
		return m.callSuspend(core.TaskWaitingEvent, q.site, os)
	default: // the sender stored the message in f.ret
		q.res.AcquireTask(m.task)
		return statDone
	}
}

// --- OSEK personality (internal/personality/osek) ---

// osekSem ports the OSEK counting semaphore: a single blocking check
// (no re-check loop — the releaser hands over directly).
type osekSem struct {
	os    *osState
	site  string
	count int
	wq    []*core.Task
	res   *core.Resource
}

func newOsekSem(os *osState, name string, count int) *osekSem {
	return &osekSem{
		os:    os,
		site:  "semaphore:" + name,
		count: count,
		res:   os.Monitor().NewResource(name, "semaphore", false),
	}
}

func (s *osekSem) stepAcquire(m *machine, f *opFrame) status {
	os := s.os
	switch f.pc {
	case 0:
		if s.count > 0 {
			s.count--
			s.res.AcquireTask(m.task)
			return statDone
		}
		t := os.Current()
		s.wq = append(s.wq, t)
		s.res.BlockTask(s.os.k.now, m.task)
		f.pc = 1
		return m.callSuspend(core.TaskWaitingEvent, s.site, os)
	default:
		s.res.UnblockTask(m.task)
		s.res.AcquireTask(m.task)
		return statDone
	}
}

func (s *osekSem) stepRelease(m *machine, f *opFrame) status {
	switch f.pc {
	case 0:
		s.res.ReleaseTask(m.task)
		if len(s.wq) > 0 {
			t := s.wq[0]
			copy(s.wq, s.wq[1:])
			s.wq[len(s.wq)-1] = nil
			s.wq = s.wq[:len(s.wq)-1]
			return m.tailResume(t, s.os)
		}
		s.count++
		return statDone
	default:
		return statDone
	}
}

// osekQueue ports the OSEK bounded queue with separate sender and
// receiver wait lists and re-check loops on both sides.
type osekQueue struct {
	os       *osState
	site     string
	buf      channel.Ring[int64]
	capacity int
	sendQ    []*core.Task
	recvQ    []*core.Task
	res      *core.Resource
}

func newOsekQueue(os *osState, name string, capacity int) *osekQueue {
	return &osekQueue{
		os:       os,
		site:     "queue:" + name,
		buf:      channel.NewRing[int64](capacity),
		capacity: capacity,
		res:      os.Monitor().NewResource(name, "queue", false),
	}
}

func (q *osekQueue) stepSend(m *machine, f *opFrame) status {
	os := q.os
	for {
		switch f.pc {
		case 0:
			if q.capacity > 0 && q.buf.Len() >= q.capacity {
				t := os.Current()
				q.sendQ = append(q.sendQ, t)
				q.res.BlockTask(q.os.k.now, m.task)
				f.pc = 1
				return m.callSuspend(core.TaskWaitingEvent, q.site, os)
			}
			f.pc = 2
		case 1:
			q.res.UnblockTask(m.task)
			f.pc = 0 // re-check capacity
		case 2:
			q.buf.Push(f.v)
			if len(q.recvQ) > 0 {
				t := q.recvQ[0]
				copy(q.recvQ, q.recvQ[1:])
				q.recvQ[len(q.recvQ)-1] = nil
				q.recvQ = q.recvQ[:len(q.recvQ)-1]
				return m.tailResume(t, os)
			}
			return statDone
		default:
			return statDone
		}
	}
}

func (q *osekQueue) stepRecv(m *machine, f *opFrame) status {
	os := q.os
	for {
		switch f.pc {
		case 0:
			if q.buf.Len() == 0 {
				t := os.Current()
				q.recvQ = append(q.recvQ, t)
				q.res.BlockTask(q.os.k.now, m.task)
				f.pc = 1
				return m.callSuspend(core.TaskWaitingEvent, q.site, os)
			}
			f.pc = 2
		case 1:
			q.res.UnblockTask(m.task)
			f.pc = 0 // re-check emptiness
		case 2:
			f.ret = q.buf.Pop()
			if len(q.sendQ) > 0 {
				t := q.sendQ[0]
				copy(q.sendQ, q.sendQ[1:])
				q.sendQ[len(q.sendQ)-1] = nil
				q.sendQ = q.sendQ[:len(q.sendQ)-1]
				return m.tailResume(t, os)
			}
			return statDone
		default:
			return statDone
		}
	}
}
