package core

import (
	"fmt"

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

// RMPolicy is rate-monotonic scheduling: fixed-priority preemptive with
// priorities derived from periods (shorter period = higher priority).
// Start assigns the derived priorities to all periodic tasks created up
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

// PolicyByName returns the policy for a command-line name: "priority",
// "fcfs", "rr" (requires quantum), "edf", or "rm".
func PolicyByName(name string, quantum sim.Time) (Policy, error) {
	k, err := policyKind(name, quantum)
	if err != nil {
		return nil, err
	}
	return builtinPolicy(k, quantum), nil
}

// policyKind parses a policy name (the name set of PolicyByName).
func policyKind(name string, quantum sim.Time) (polKind, error) {
	switch name {
	case "priority", "prio":
		return polPriority, nil
	case "fcfs", "fifo":
		return polFCFS, nil
	case "rr", "roundrobin":
		if quantum <= 0 {
			return 0, fmt.Errorf("core: round-robin needs a positive quantum, got %v", quantum)
		}
		return polRR, nil
	case "edf":
		return polEDF, nil
	case "rm", "ratemonotonic":
		return polRM, nil
	default:
		return 0, fmt.Errorf("core: unknown scheduling policy %q", name)
	}
}

// builtinPolicy is the Policy value of a built-in kind.
func builtinPolicy(k polKind, quantum sim.Time) Policy {
	switch k {
	case polFCFS:
		return FCFSPolicy{}
	case polRR:
		return RoundRobinPolicy{Quantum: quantum}
	case polEDF:
		return EDFPolicy{}
	case polRM:
		return RMPolicy{}
	default:
		return PriorityPolicy{}
	}
}
