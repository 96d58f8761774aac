// Quickstart: two tasks on the abstract RTOS model.
//
// A high-priority "control" task blocks on a semaphore that a lower
// priority "worker" task releases after each processing step — the
// smallest useful multi-tasking model: task creation, priorities,
// preemption, events and time modeling, all on the SLDL simulation
// kernel.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	k := sim.NewKernel()

	// One processing element's RTOS model instance with fixed-priority
	// preemptive scheduling (the paper's default algorithm).
	rtos := core.New(k, "CPU0", core.PriorityPolicy{})
	rec := trace.New("quickstart")
	telemetry.Attach(rtos, rec)

	f := channel.RTOSFactory{OS: rtos}
	done := channel.NewSemaphore(f, "done", 0)

	// Tasks are created with the paper's task_create parameters and bound
	// to their simulation process by task_activate at the top of the
	// process body (paper Figure 5).
	control := rtos.TaskCreate("control", core.Aperiodic, 0, 0, 1) // high
	worker := rtos.TaskCreate("worker", core.Aperiodic, 0, 0, 5)   // low

	k.Spawn("control", func(p *sim.Proc) {
		rtos.TaskActivate(p, control)
		for i := 0; i < 3; i++ {
			done.Acquire(p) // wait for one work item
			rtos.TimeWait(p, 2*sim.Millisecond)
			fmt.Printf("[%8v] control: handled result %d\n", p.Now(), i)
		}
		rtos.TaskTerminate(p)
	})
	k.Spawn("worker", func(p *sim.Proc) {
		rtos.TaskActivate(p, worker)
		for i := 0; i < 3; i++ {
			rtos.TimeWait(p, 10*sim.Millisecond) // modeled computation
			fmt.Printf("[%8v] worker:  produced item %d\n", p.Now(), i)
			done.Release(p) // control preempts here
		}
		rtos.TaskTerminate(p)
	})

	rtos.Start(nil)
	if err := k.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulation error:", err)
		os.Exit(1)
	}

	st := rtos.StatsSnapshot()
	fmt.Printf("\nfinished at %v: %d dispatches, %d context switches, %d preemptions\n",
		k.Now(), st.Dispatches, st.ContextSwitches, st.Preemptions)
	fmt.Println("\nschedule:")
	if err := rec.Gantt(os.Stdout, trace.GanttOptions{Width: 60}); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
