// Package sim implements a discrete-event simulation kernel with the
// semantics of a system level design language (SLDL) such as SpecC or
// SystemC: cooperatively scheduled processes, logical time that advances
// in discrete steps, events with delta-cycle notification, timed waits
// (SpecC's waitfor), and parallel fork/join composition (SpecC's par).
//
// The kernel is the substrate on which the abstract RTOS model of
// internal/core is layered, exactly as the DATE 2003 paper "RTOS Modeling
// for System Level Design" layers its RTOS model on the SpecC simulation
// kernel. Only one process executes at any instant. Processes run as
// runtime coroutines (iter.Pull), like the user-level threads of a SpecC
// or SystemC kernel: the loop in RunUntil resumes one, which runs until it
// blocks and then yields the process that runs next as its hand-off; a
// process whose own wake-up is the next work item continues with no switch
// at all. The coroutines are carriers pooled across kernels: each runs one
// process after another, and a process holds one from its first resume
// until it ends. Ready processes run in deterministic FIFO order per
// (time, delta cycle), so simulations are bit-reproducible.
//
// The coroutines need Go 1.23 or newer. go.mod names go 1.22 and only
// carrier.go carries a go1.23 build line; an older toolchain stops at
// the undefined sim_kernel_requires_go1_23_or_newer (requires_go123.go).
package sim

import "fmt"

// Time is a point in (or duration of) logical simulation time. The unit is
// abstract; examples and experiments in this repository interpret one tick
// as one nanosecond so that microsecond/millisecond helpers read naturally.
type Time int64

// Convenience duration units, interpreting one Time tick as a nanosecond.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a time later than any reachable simulation time. Passing it
// to Kernel.RunUntil runs the simulation to completion.
const Forever Time = 1<<63 - 1

// String renders t using the largest unit that divides it exactly, e.g.
// "20ms", "500us", "7ns". Forever renders as "forever".
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	switch {
	case t >= Second && t%Second == 0:
		return fmt.Sprintf("%s%ds", neg, t/Second)
	case t >= Millisecond && t%Millisecond == 0:
		return fmt.Sprintf("%s%dms", neg, t/Millisecond)
	case t >= Microsecond && t%Microsecond == 0:
		return fmt.Sprintf("%s%dus", neg, t/Microsecond)
	default:
		return fmt.Sprintf("%s%dns", neg, t)
	}
}
