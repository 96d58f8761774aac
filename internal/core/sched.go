package core

import (
	"fmt"
	"sort"

	"repro/internal/readyq"
	"repro/internal/sim"
)

// Policy is a pluggable scheduling algorithm for the RTOS model (the
// paper's start(sched_alg) parameter). A policy defines a strict ordering
// over runnable tasks; the dispatcher always runs the least task under
// Less. Ties are broken FIFO by ready-queue arrival.
type Policy interface {
	// Name identifies the policy in traces and experiment output.
	Name() string
	// Preemptive reports whether a newly ready task that orders before the
	// running task takes the CPU away at the next scheduling point.
	Preemptive() bool
	// Less reports whether a should run in preference to b. It must be a
	// strict weak ordering and must not consider ready-queue arrival
	// order; the dispatcher adds the FIFO tie-break itself.
	Less(a, b *Task) bool
	// Slice returns the round-robin time slice, or 0 for no time slicing.
	Slice() sim.Time
	// Rank maps a task to its key in the indexed ready queue
	// (internal/readyq); the keys' lexicographic order must be identical
	// to Less. The key may depend only on fields whose mutation is
	// reported to the dispatcher (priority via Task.SetPriority / priority
	// inheritance, deadline via Task.SetDeadline / release) — the OS
	// re-keys queued tasks on those paths.
	Rank(t *Task) readyq.Key
}

// PriorityPolicy is fixed-priority preemptive scheduling — the paper's
// default algorithm, used for its Figure 8 and vocoder experiments.
// Smaller priority values run first.
type PriorityPolicy struct{}

// Name returns "priority".
func (PriorityPolicy) Name() string { return "priority" }

// Preemptive returns true.
func (PriorityPolicy) Preemptive() bool { return true }

// Less orders by base priority.
func (PriorityPolicy) Less(a, b *Task) bool { return a.prio < b.prio }

// Slice returns 0: no time slicing.
func (PriorityPolicy) Slice() sim.Time { return 0 }

// Rank indexes by base priority.
func (PriorityPolicy) Rank(t *Task) readyq.Key { return readyq.Key{A: int64(t.prio)} }

// FCFSPolicy is non-preemptive first-come-first-served scheduling: tasks
// run in ready-queue order and keep the CPU until they block or finish.
type FCFSPolicy struct{}

// Name returns "fcfs".
func (FCFSPolicy) Name() string { return "fcfs" }

// Preemptive returns false.
func (FCFSPolicy) Preemptive() bool { return false }

// Less imposes no ordering beyond FIFO arrival (handled by the
// dispatcher's tie-break).
func (FCFSPolicy) Less(a, b *Task) bool { return false }

// Slice returns 0: no time slicing.
func (FCFSPolicy) Slice() sim.Time { return 0 }

// Rank is constant: FCFS order is the dispatcher's FIFO tie-break alone.
func (FCFSPolicy) Rank(t *Task) readyq.Key { return readyq.Key{} }

// RoundRobinPolicy is priority scheduling with time slicing among tasks of
// equal priority: a task that exhausts its slice inside TimeWait is moved
// behind its equal-priority peers.
type RoundRobinPolicy struct {
	// Quantum is the time slice; it must be positive.
	Quantum sim.Time
}

// Name returns "rr".
func (p RoundRobinPolicy) Name() string { return "rr" }

// Preemptive returns true.
func (p RoundRobinPolicy) Preemptive() bool { return true }

// Less orders by base priority; rotation within a priority level is
// implemented by the dispatcher re-queueing on slice expiry.
func (p RoundRobinPolicy) Less(a, b *Task) bool { return a.prio < b.prio }

// Slice returns the configured quantum.
func (p RoundRobinPolicy) Slice() sim.Time { return p.Quantum }

// Rank indexes by base priority; slice-expiry rotation re-queues with a
// fresh arrival seq, which the FIFO tie-break turns into the rotation.
func (p RoundRobinPolicy) Rank(t *Task) readyq.Key { return readyq.Key{A: int64(t.prio)} }

// EDFPolicy is preemptive earliest-deadline-first scheduling. Periodic
// tasks receive an absolute deadline of release+period at every release;
// aperiodic tasks default to no deadline (sim.Forever) and therefore yield
// to all deadline-constrained work.
type EDFPolicy struct{}

// Name returns "edf".
func (EDFPolicy) Name() string { return "edf" }

// Preemptive returns true.
func (EDFPolicy) Preemptive() bool { return true }

// Less orders by absolute deadline, using base priority as a secondary
// key so deadline ties remain deterministic under priority intent.
func (EDFPolicy) Less(a, b *Task) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.prio < b.prio
}

// Slice returns 0: no time slicing.
func (EDFPolicy) Slice() sim.Time { return 0 }

// Rank indexes by (absolute deadline, base priority), matching Less.
func (EDFPolicy) Rank(t *Task) readyq.Key {
	return readyq.Key{A: int64(t.deadline), B: int64(t.prio)}
}

// RMPolicy is rate-monotonic scheduling: fixed-priority preemptive with
// priorities derived from periods (shorter period = higher priority).
// OS.Start assigns the derived priorities to all periodic tasks created up
// to that point; aperiodic tasks keep their base priority shifted below
// every periodic task.
type RMPolicy struct{}

// Name returns "rm".
func (RMPolicy) Name() string { return "rm" }

// Preemptive returns true.
func (RMPolicy) Preemptive() bool { return true }

// Less orders by (derived) base priority.
func (RMPolicy) Less(a, b *Task) bool { return a.prio < b.prio }

// Slice returns 0: no time slicing.
func (RMPolicy) Slice() sim.Time { return 0 }

// Rank indexes by the derived base priority.
func (RMPolicy) Rank(t *Task) readyq.Key { return readyq.Key{A: int64(t.prio)} }

// assignRateMonotonic rewrites task priorities per RM: periodic tasks are
// ranked by period (shortest first); aperiodic tasks are pushed below all
// periodic ones, preserving their relative base-priority order.
func assignRateMonotonic(tasks []*Task) {
	var periodic, aperiodic []*Task
	for _, t := range tasks {
		if t.typ == Periodic {
			periodic = append(periodic, t)
		} else {
			aperiodic = append(aperiodic, t)
		}
	}
	sort.SliceStable(periodic, func(i, j int) bool {
		return periodic[i].period < periodic[j].period
	})
	sort.SliceStable(aperiodic, func(i, j int) bool {
		return aperiodic[i].prio < aperiodic[j].prio
	})
	p := 0
	for _, t := range periodic {
		t.prio = p
		p++
	}
	for _, t := range aperiodic {
		t.prio = p
		p++
	}
}

// PolicyByName returns the policy for a command-line name: "priority",
// "fcfs", "rr" (requires quantum), "edf", or "rm".
func PolicyByName(name string, quantum sim.Time) (Policy, error) {
	switch name {
	case "priority", "prio":
		return PriorityPolicy{}, nil
	case "fcfs", "fifo":
		return FCFSPolicy{}, nil
	case "rr", "roundrobin":
		if quantum <= 0 {
			return nil, fmt.Errorf("core: round-robin needs a positive quantum, got %v", quantum)
		}
		return RoundRobinPolicy{Quantum: quantum}, nil
	case "edf":
		return EDFPolicy{}, nil
	case "rm", "ratemonotonic":
		return RMPolicy{}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheduling policy %q", name)
	}
}
