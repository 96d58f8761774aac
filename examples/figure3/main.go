// Figure 3 / Figure 8: the paper's running example.
//
// Loads the single-PE design of the paper's Figure 3 — behavior B1
// followed by the parallel composition of B2 and B3, channels c1/c2, and
// a bus-driver ISR signalling a semaphore on an external interrupt — from
// its built-in SDL file (internal/sdl/models/figure3.sdl) and simulates
// it twice:
//
//  1. as the unscheduled specification model (paper Figure 8(a)), where
//     B2 and B3 execute truly in parallel, and
//  2. as the RTOS-based architecture model under priority scheduling
//     (Figure 8(b)), where tasks interleave and the interrupt at t4 takes
//     effect at t4', the end of task B2's current time step.
//
// Run with: go run ./examples/figure3 [-events]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sdl"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	events := flag.Bool("events", false, "print the full event lists")
	traceOut := flag.String("trace-out", "", "write the architecture run as Chrome trace-event JSON (Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write architecture scheduler metrics in Prometheus text format")
	flag.Parse()

	m, err := sdl.Load("figure3")
	check(err)

	specRec, err := m.RunUnscheduled()
	check(err)
	tel := telemetry.NewCapture()
	archRec, osm, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse, tel.Bus)
	check(err)
	segRec, _, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelSegmented)
	check(err)

	gopts := trace.GanttOptions{Width: 64, Tasks: []string{"B1", "B2", "B3"}}

	fmt.Println("=== Figure 8(a): unscheduled specification model ===")
	fmt.Println("B2 and B3 overlap; delays are truly concurrent.")
	check(specRec.Gantt(os.Stdout, gopts))
	fmt.Printf("overlap(B2,B3) = %v, end = %v\n\n", specRec.Overlap("B2", "B3"), specRec.End())

	fmt.Println("=== Figure 8(b): architecture model, priority scheduling, coarse time ===")
	fmt.Println("Tasks serialize; the interrupt at t4 is served at t4' (end of B2's d6).")
	archOpts := gopts
	archOpts.Tasks = []string{"PE", "B2", "B3"} // B1 runs inside the PE main task
	check(archRec.Gantt(os.Stdout, archOpts))
	st := osm.StatsSnapshot()
	fmt.Printf("overlap(B2,B3) = %v, end = %v, contextSwitches = %d, preemptions = %d\n",
		archRec.Overlap("B2", "B3"), archRec.End(), st.ContextSwitches, st.Preemptions)
	fmt.Printf("interrupt at t4 = %v; B3 receives its data at t4' = %v (coarse model)\n\n",
		m.IRQs[0].At, archRec.MarkerTimes("ext-data")[0])

	fmt.Println("=== extension: segmented time model (immediate preemption) ===")
	fmt.Printf("B3 receives its data already at %v (= t4)\n\n", segRec.MarkerTimes("ext-data")[0])

	if *events {
		fmt.Println("--- event list, architecture model ---")
		check(archRec.EventList(os.Stdout))
	}
	if *traceOut != "" {
		check(tel.WriteTraceFile(*traceOut))
		fmt.Printf("Chrome trace written to %s\n", *traceOut)
	}
	if *metricsOut != "" {
		check(tel.WriteMetricsFile(*metricsOut))
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
