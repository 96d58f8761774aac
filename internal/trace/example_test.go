package trace_test

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Attach a recorder to an RTOS model instance, simulate, and render the
// schedule as an ASCII Gantt chart (the textual Figure 8).
func ExampleRecorder_Gantt() {
	k := sim.NewKernel()
	rtos := core.New(k, "CPU", core.PriorityPolicy{})
	rec := trace.New("demo")
	telemetry.Attach(rtos, rec)

	mk := func(name string, prio int, work sim.Time) {
		task := rtos.TaskCreate(name, core.Aperiodic, 0, work, prio)
		k.Spawn(name, func(p *sim.Proc) {
			rtos.TaskActivate(p, task)
			rtos.TimeWait(p, work)
			rtos.TaskTerminate(p)
		})
	}
	mk("hi", 1, 30)
	mk("lo", 2, 30)
	rtos.Start(nil)
	if err := k.Run(); err != nil {
		fmt.Println("error:", err)
	}
	rec.Gantt(os.Stdout, trace.GanttOptions{Width: 20, Tasks: []string{"hi", "lo"}})
	fmt.Printf("context switches: %d\n", rec.ContextSwitches())
	// Output:
	// hi       |##########..........|
	// lo       |..........##########|
	//           0ns             60ns
	// context switches: 1
}
