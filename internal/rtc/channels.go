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
	obj core.Channel
	ev  *core.OSEvent
}

// checkChannel checks a declared channel's kind and argument. Both
// engines call it before they build the channel, so they reject the same
// declarations with the same messages.
func checkChannel(c ChannelDef) error {
	switch c.Kind {
	case "handshake":
		return nil
	case "queue":
		return channel.ValidateQueue(c.Name, c.Arg)
	case "semaphore":
		return channel.ValidateSemaphore(c.Name, c.Arg)
	}
	return fmt.Errorf("unknown channel kind %q", c.Kind)
}

// findChannel returns the index of the declared channel of the given kind
// named name, or -1. Both engines keep their channels in declaration
// order.
func findChannel(defs []ChannelDef, name, kind string) int {
	for i, c := range defs {
		if c.Name == name && c.Kind == kind {
			return i
		}
	}
	return -1
}

// flatOp resolves a flat task body's channel op (send, recv, acquire or
// release) to its operation and the index of the declared channel it
// works on.
func flatOp(defs []ChannelDef, op Op) (core.ChanOp, int, error) {
	b, ok := chanOps[op.Kind]
	if !ok || b.kind == "handshake" {
		return 0, 0, fmt.Errorf("rtc: unknown op kind %q", op.Kind)
	}
	i := findChannel(defs, op.Ch, b.kind)
	if i < 0 {
		return 0, 0, fmt.Errorf("rtc: op %q references unknown %s %q", op.Kind, b.kind, op.Ch)
	}
	return b.op, i, nil
}

// opOnKind reports whether op is one of chanOps' operations on a
// channel of the given kind.
func opOnKind(op core.ChanOp, kind string) bool {
	for _, b := range chanOps {
		if b.op == op && b.kind == kind {
			return true
		}
	}
	return false
}

// newChannel builds a checked channel declaration of the personality's
// native kind through the constructors both engines share.
func newChannel(os *osState, pers string, c ChannelDef) (r chanRef, err error) {
	if err = checkChannel(c); err != nil {
		return r, err
	}
	switch {
	case c.Kind == "handshake": // no personality-native kind (sdl.instance.makeChannel)
		h := channel.NewHandshakeState(os.Monitor(), c.Name)
		r.obj, r.ev = &h, core.NewOSEvent(c.Name+".hs")
	case c.Kind == "queue" && pers == personality.ITRON: // unbounded: the capacity is only checked
		r.obj, _ = os.itronKernel().CreMbx(c.Name, itron.TATFifo)
	case c.Kind == "queue" && pers == personality.OSEK:
		r.obj, err = personality.NewOSEKQueue(os.Monitor(), c.Name, c.Arg)
	case c.Kind == "queue":
		q, e := channel.NewQueueState[int64](os.Monitor(), c.Name, c.Arg)
		r.obj, r.ev, err = &q, core.NewOSEvent(c.Name+".q"), e
	case pers == personality.ITRON:
		s, er := os.itronKernel().CreSem(c.Name, c.Arg, itron.TMaxSemCnt, itron.TATFifo)
		r.obj = s
		if er != itron.EOK {
			err = fmt.Errorf("itron: cre_sem %q: %v", c.Name, er)
		}
	case pers == personality.OSEK:
		r.obj, err = personality.NewOSEKSem(os.Monitor(), c.Name, c.Arg)
	default:
		s, e := channel.NewSemaphoreState(os.Monitor(), c.Name, c.Arg)
		r.obj, r.ev, err = &s, core.NewOSEvent(c.Name+".sem"), e
	}
	return r, err
}

// opFrame is the single reusable channel-operation frame per machine. It
// steps the bound channel's shared state object and turns the verdict
// into a service: wait on the channel's OS event, suspend at the
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
		return m.eventWait(f.c.ev, statCall)
	case v.Suspend != "":
		return m.suspend(core.TaskWaitingEvent, v.Suspend, statCall)
	case v.Wake != nil:
		return m.resume(v.Wake, statDone)
	case v.Notify:
		return m.eventNotify(f.c.ev, statDone)
	}
	return statDone
}

// callOp pushes the op frame for op on c.
func (m *machine) callOp(op core.ChanOp, c *chanRef, val int64) status {
	m.fOp = opFrame{op: op, c: c, val: val}
	return m.push(&m.fOp)
}
