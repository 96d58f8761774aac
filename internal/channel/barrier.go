package channel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Barrier synchronizes a fixed party of processes: each call to Await
// blocks until all parties have arrived, then all are released and the
// barrier resets for the next round.
type Barrier struct {
	name       string
	cond       Cond
	parties    int
	arrived    int
	generation uint64
	res        *core.Resource
}

// NewBarrier creates a barrier for the given number of parties (≥ 1).
func NewBarrier(f Factory, name string, parties int) *Barrier {
	if parties < 1 {
		panic(fmt.Sprintf("channel: barrier %q parties %d < 1", name, parties))
	}
	return &Barrier{name: name, cond: f.NewCond(name + ".bar"), parties: parties,
		res: monitorOf(f).NewResource(name, "barrier", false)}
}

// Name returns the barrier's name.
func (b *Barrier) Name() string { return b.name }

// Await blocks until all parties have arrived. It returns the arrival
// index within the round (0 = first, parties-1 = last, who trips the
// barrier).
func (b *Barrier) Await(p *sim.Proc) int {
	idx := b.arrived
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.generation++
		b.cond.Notify(p)
		return idx
	}
	gen := b.generation
	b.res.Block(p)
	for gen == b.generation {
		b.cond.Wait(p)
	}
	b.res.Unblock(p)
	return idx
}

// HandshakeState is a handshake's latch and transitions (see
// core.Channel), shared by both execution engines: OpSignal latches one
// signal; an OpWait with none pending waits on the handshake's condition
// and re-checks after every wake-up.
type HandshakeState struct {
	pending int
	res     *core.Resource
}

// NewHandshakeState returns an empty latch registered with the monitor m
// (nil: untracked, as for the interrupt-request latches of arch.PE).
func NewHandshakeState(m *core.Monitor, name string) HandshakeState {
	return HandshakeState{res: m.NewResource(name, "handshake", false)}
}

// Pending returns the number of latched, unconsumed signals.
func (h *HandshakeState) Pending() int { return h.pending }

// Step performs OpSignal or OpWait for task t.
func (h *HandshakeState) Step(now sim.Time, t *core.Task, op core.ChanOp, val int64, again bool) (int64, core.Verdict) {
	switch {
	case op == core.OpSignal:
		h.pending++
		return val, core.Verdict{Notify: true}
	case h.pending == 0:
		if !again {
			h.res.BlockTask(now, t)
		}
		return val, core.Verdict{Wait: true}
	}
	if again {
		h.res.UnblockTask(t)
	}
	h.pending--
	return val, core.Verdict{}
}

// State writes or reads the latch for a checkpoint.
func (h *HandshakeState) State(c *core.StateCodec) {
	c.Line("ch %d", &h.pending)
	if h.pending < 0 {
		c.Failf("handshake has %d pending signals", h.pending)
	}
}

// Handshake is a one-slot signal with memory: unlike a raw SLDL event, a
// Signal delivered while nobody waits is latched and satisfies the next
// WaitSig. It models the classic two-wire ready/acknowledge handshake at
// the abstraction level of the paper's communication synthesis.
type Handshake struct {
	HandshakeState
	name string
	cond Cond
}

// NewHandshake creates a handshake with no pending signal.
func NewHandshake(f Factory, name string) *Handshake {
	return &Handshake{HandshakeState: NewHandshakeState(monitorOf(f), name),
		name: name, cond: f.NewCond(name + ".hs")}
}

// Name returns the handshake's name.
func (h *Handshake) Name() string { return h.name }

// Signal latches one signal and wakes a waiter. Callable from ISRs.
func (h *Handshake) Signal(p *sim.Proc) {
	h.Step(p.Now(), nil, core.OpSignal, 0, false)
	h.cond.Notify(p)
}

// WaitSig blocks until a signal is (or was) delivered and consumes it.
func (h *Handshake) WaitSig(p *sim.Proc) {
	t := h.res.TaskOf(p)
	for again := false; ; again = true {
		if _, vd := h.Step(p.Now(), t, core.OpWait, 0, again); !vd.Wait {
			return
		}
		h.cond.Wait(p)
	}
}
