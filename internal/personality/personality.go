// Package personality puts an RTOS "personality" behind one interface:
// the same abstract dispatcher (internal/core) can present the generic
// paper-model service surface, a µITRON 4.0 kernel, or an OSEK/VDX
// kernel. A Runtime maps the model-level operations application runners
// use — activate, compute, end-of-cycle, terminate, sleep/wake, priority
// change, and message/semaphore communication — onto the corresponding
// native services of the selected personality, so the same task set can
// be simulated under different target RTOS APIs and compared (context
// switches, blocking time, deadline misses) without touching the
// scheduler underneath. This is the paper's "RTOS library" axis: the
// abstract model stands in for any concrete RTOS, and personalities are
// the refinement targets.
//
// The generic personality routes through the channel package unchanged,
// so existing models keep byte-identical traces. The itron personality
// uses mailboxes, ITRON semaphores (direct-handoff FIFO grant) and
// slp_tsk/wup_tsk. The osek personality uses the core task lifecycle
// with FIFO queued messages in the style of OSEK COM — OSEK proper has
// no blocking semaphore, its resources are the ceiling-protocol locks
// tested in the osek package's conformance suite.
package personality

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Personality kinds accepted by New.
const (
	Generic = "generic"
	ITRON   = "itron"
	OSEK    = "osek"
)

// Kinds returns every personality kind, in canonical order.
func Kinds() []string { return []string{Generic, ITRON, OSEK} }

// Valid reports whether kind names a personality ("" counts: it selects
// the generic default). Front ends use it to validate configuration
// before a dispatcher instance exists.
func Valid(kind string) bool {
	switch kind {
	case "", Generic, ITRON, OSEK:
		return true
	}
	return false
}

// Queue is a personality-mapped message channel: blocking receive,
// send blocking only when a finite capacity is exhausted.
type Queue interface {
	Send(p *sim.Proc, v int64)
	Recv(p *sim.Proc) int64
}

// Semaphore is a personality-mapped counting semaphore. Release is
// callable from interrupt handlers (the paper's bus-driver ISR pattern).
type Semaphore interface {
	Acquire(p *sim.Proc)
	Release(p *sim.Proc)
}

// Runtime is the personality-neutral service surface application runners
// program against. Implementations translate each operation to the
// native service of their kernel API; all of them drive the same
// dispatcher, so scheduling policy, time model and telemetry are shared.
type Runtime interface {
	// Kind returns the personality kind string.
	Kind() string
	// OS returns the underlying dispatcher instance.
	OS() *core.OS

	// TaskCreate allocates a task control block.
	TaskCreate(name string, typ core.TaskType, period, wcet sim.Time, prio int) *core.Task
	// Activate releases a task (binding the calling process on first use).
	Activate(p *sim.Proc, t *core.Task)
	// Compute models d time units of task execution.
	Compute(p *sim.Proc, d sim.Time)
	// EndCycle ends a periodic task's cycle and waits for its next release.
	EndCycle(p *sim.Proc)
	// Terminate ends the calling task.
	Terminate(p *sim.Proc)
	// Sleep blocks the calling task until a Wake addresses it.
	Sleep(p *sim.Proc)
	// Wake releases a task blocked in Sleep (or queues the wakeup, where
	// the personality supports wakeup counting).
	Wake(p *sim.Proc, t *core.Task)
	// ChangePriority changes a task's priority through the personality's
	// native service.
	ChangePriority(p *sim.Proc, t *core.Task, prio int)
	// Schedule is a voluntary scheduling point (OSEK Schedule, generic
	// yield).
	Schedule(p *sim.Proc)

	// NewQueue creates a message channel of the personality's native kind.
	NewQueue(name string, capacity int) Queue
	// NewSemaphore creates a counting semaphore of the personality's
	// native kind.
	NewSemaphore(name string, count int) Semaphore
}

// New returns the Runtime of the requested kind over the given
// dispatcher instance.
func New(kind string, os *core.OS) (Runtime, error) {
	switch kind {
	case Generic, "":
		return newGeneric(os), nil
	case ITRON:
		return newITRON(os), nil
	case OSEK:
		return newOSEK(os), nil
	}
	return nil, fmt.Errorf("personality: unknown kind %q (have %v)", kind, Kinds())
}
