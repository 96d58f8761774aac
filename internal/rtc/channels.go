package rtc

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/personality/itron"
)

// chanRef is one declared channel: the state object both engines share
// (a core.Channel) and, for the generic personality's queues and
// semaphores and for handshakes, the OS event its waiters wait on.
type chanRef struct {
	name string
	kind string
	obj  core.Channel
	ev   *core.OSEvent
}

// newChannel builds a declared channel of the personality's native kind
// through the constructors both engines share, which check its argument.
func newChannel(os *osState, pers string, c ChannelDef) (r chanRef, err error) {
	r = chanRef{name: c.Name, kind: c.Kind}
	switch {
	case c.Kind == "handshake": // no personality-native kind (sdl.instance.makeChannel)
		h := channel.NewHandshakeState(os.Monitor(), c.Name)
		r.obj, r.ev = &h, core.NewOSEvent(c.Name+".hs")
	case c.Kind == "queue" && pers == personality.ITRON: // unbounded: the capacity is only checked
		if err = channel.ValidateQueue(c.Name, c.Arg); err == nil {
			r.obj, _ = os.itronKernel().CreMbx(c.Name, itron.TATFifo)
		}
	case c.Kind == "queue" && pers == personality.OSEK:
		r.obj, err = personality.NewOSEKQueue(os.Monitor(), c.Name, c.Arg)
	case c.Kind == "queue":
		q, e := channel.NewQueueState[int64](os.Monitor(), c.Name, c.Arg)
		r.obj, r.ev, err = &q, core.NewOSEvent(c.Name+".q"), e
	case c.Kind == "semaphore" && pers == personality.ITRON:
		if err = channel.ValidateSemaphore(c.Name, c.Arg); err == nil {
			s, er := os.itronKernel().CreSem(c.Name, c.Arg, itron.TMaxSemCnt, itron.TATFifo)
			r.obj = s
			if er != itron.EOK {
				err = fmt.Errorf("itron: cre_sem %q: %v", c.Name, er)
			}
		}
	case c.Kind == "semaphore" && pers == personality.OSEK:
		r.obj, err = personality.NewOSEKSem(os.Monitor(), c.Name, c.Arg)
	case c.Kind == "semaphore":
		s, e := channel.NewSemaphoreState(os.Monitor(), c.Name, c.Arg)
		r.obj, r.ev, err = &s, core.NewOSEvent(c.Name+".sem"), e
	default:
		err = fmt.Errorf("unknown channel kind %q", c.Kind)
	}
	return r, err
}

// opFrame is the single reusable channel-operation frame per machine. It
// steps the bound channel's shared state object and turns the verdict
// into engine glue: wait on the channel's OS event, suspend at the
// object's site, resume the task it handed a grant to, or notify the
// event. pc 0 is the first attempt, pc 1 each attempt after a wait.
type opFrame struct {
	op  core.ChanOp
	c   *chanRef
	val int64 // the message sent or received
	pc  int
}

func (f *opFrame) step(m *machine) status {
	os := m.k.os
	var v core.Verdict
	f.val, v = f.c.obj.Step(os.k.now, m.task, f.op, f.val, f.pc == 1)
	f.pc = 1
	switch {
	case v.Err != nil:
		os.k.fail(v.Err)
	case v.Wait:
		return m.callEventWait(f.c.ev, os)
	case v.Suspend != "":
		return m.callSuspend(core.TaskWaitingEvent, v.Suspend, os)
	case v.Wake != nil:
		return m.tailResume(v.Wake, os)
	case v.Notify:
		return m.tailEventNotify(f.c.ev, os)
	}
	return statDone
}

// callOp pushes the op frame for op on c.
func (m *machine) callOp(op core.ChanOp, c *chanRef, val int64) status {
	m.fOp = opFrame{op: op, c: c, val: val}
	return m.push(&m.fOp)
}
