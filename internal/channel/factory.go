// Package channel provides the SLDL communication library of the design
// flow: semaphores, mutexes, bounded queues, rendezvous mailboxes,
// barriers and handshakes, usable both in the unscheduled specification
// model and in the RTOS-based architecture model.
//
// The package implements the paper's synchronization refinement
// (Figure 7) as a factory indirection: every channel is built from
// abstract condition primitives (Cond) obtained from a Factory. The
// SpecFactory binds conditions to raw SLDL events of the simulation
// kernel; the RTOSFactory binds them to RTOS events of a core.OS
// instance. Refining a model from specification to architecture therefore
// swaps the factory and nothing else — exactly the paper's "existing SLDL
// channels are reused by refining their internal synchronization
// primitives to map to corresponding RTOS calls".
//
// All channels follow the predicate re-check discipline (state guarded by
// loops around Cond.Wait), so they are immune to the lost-notification
// semantics of the underlying memoryless events under preemption. The
// queue, semaphore and handshake keep that discipline in their state
// types (QueueState, SemaphoreState, HandshakeState), which the
// run-to-completion engine (internal/rtc) drives too.
package channel

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Cond is an abstract condition: a memoryless wake-up point. Wait blocks
// the calling process/task until some later Notify; Notify wakes all
// current waiters. Users must guard Wait with a predicate loop.
type Cond interface {
	// Wait blocks the calling process until the condition is notified.
	Wait(p *sim.Proc)
	// Notify wakes all processes currently blocked in Wait.
	Notify(p *sim.Proc)
}

// Factory creates synchronization primitives for one modeling layer.
type Factory interface {
	// Name identifies the layer ("spec" or "rtos/<pe>") in diagnostics.
	Name() string
	// NewCond allocates a condition.
	NewCond(name string) Cond
	// Delay models execution time of the calling process: SLDL waitfor at
	// specification level, RTOS time_wait at architecture level.
	Delay(p *sim.Proc, d sim.Time)
}

// SpecFactory implements Factory on raw simulation-kernel primitives: the
// specification-model layer (paper Figure 2(a)).
type SpecFactory struct {
	K *sim.Kernel
}

// Name returns "spec".
func (SpecFactory) Name() string { return "spec" }

// NewCond returns a condition backed by an SLDL event.
func (f SpecFactory) NewCond(name string) Cond { return specCond{e: f.K.NewEvent(name)} }

// Delay is the SLDL waitfor.
func (f SpecFactory) Delay(p *sim.Proc, d sim.Time) { p.WaitFor(d) }

type specCond struct{ e *sim.Event }

func (c specCond) Wait(p *sim.Proc)   { p.Wait(c.e) }
func (c specCond) Notify(p *sim.Proc) { p.Notify(c.e) }

// RTOSFactory implements Factory on the RTOS model of a processing
// element: the architecture-model layer (paper Figure 2(b)). Wait may only
// be called by the running task of the OS instance; Notify may also be
// called from interrupt handlers.
type RTOSFactory struct {
	OS *core.OS
}

// Name returns "rtos/<instance>".
func (f RTOSFactory) Name() string { return "rtos/" + f.OS.Name() }

// NewCond returns a condition backed by an RTOS event.
func (f RTOSFactory) NewCond(name string) Cond {
	return rtosCond{os: f.OS, e: f.OS.EventNew(name)}
}

// Delay is the RTOS time_wait: the task's modeled execution time, subject
// to the OS instance's time model and scheduling.
func (f RTOSFactory) Delay(p *sim.Proc, d sim.Time) { f.OS.TimeWait(p, d) }

type rtosCond struct {
	os *core.OS
	e  *core.OSEvent
}

func (c rtosCond) Wait(p *sim.Proc)   { c.os.EventWait(p, c.e) }
func (c rtosCond) Notify(p *sim.Proc) { c.os.EventNotify(p, c.e) }

// monitorOf resolves the runtime-diagnosis monitor for channels built on
// f: on an RTOSFactory channels register with the OS instance's
// wait-for-graph monitor (enabling deadlock/stall diagnosis with the
// channel named as the blocking site); on other factories it returns nil,
// whose resources are nil and track nothing at zero cost —
// core.Resource methods are nil-receiver safe.
func monitorOf(f Factory) *core.Monitor {
	switch rf := f.(type) {
	case RTOSFactory:
		return rf.OS.Monitor()
	case *RTOSFactory:
		return rf.OS.Monitor()
	}
	return nil
}
