// Command slsim elaborates and simulates a system model written in the
// SDL frontend (internal/sdl) — the file-based counterpart of the SpecC
// sources the paper's flow consumes. The same file runs as the
// unscheduled specification model or as the RTOS-based architecture
// model (automatically the mapped multi-PE architecture when the file
// declares PEs), and -model both prints the milestone drift the
// refinement introduced.
//
//	go run ./cmd/slsim -model both internal/sdl/models/figure3.sdl
//	go run ./cmd/slsim -model both testdata/pipeline2pe.sdl   # multi-PE
//	go run ./cmd/slsim -model arch -policy edf -gantt design.sdl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/sdl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	model := flag.String("model", "both", "which model to run: spec|arch|both")
	policyFlag := flag.String("policy", "priority", "architecture scheduling policy (priority|fcfs|rr|edf|rm)")
	quantumUs := flag.Float64("quantum", 1000, "round-robin quantum in µs")
	tmFlag := flag.String("timemodel", "coarse", "time model (coarse|segmented)")
	persFlag := flag.String("personality", "", "override the model's RTOS personality (generic|itron|osek)")
	engineFlag := flag.String("engine", "", "execution engine for the architecture model (goroutine|rtc); rtc runs single-PE models on the run-to-completion engine, with the same -trace-out/-metrics-out outputs")
	gantt := flag.Bool("gantt", true, "print ASCII Gantt charts")
	events := flag.Bool("events", false, "print event lists")
	vcdOut := flag.String("vcd", "", "write the architecture trace as VCD")
	traceOut := flag.String("trace-out", "", "write the architecture run as Chrome trace-event JSON (Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write architecture scheduler metrics in Prometheus text format")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "slsim: need exactly one .sdl file")
		os.Exit(2)
	}
	switch *engineFlag {
	case "", "goroutine", "rtc":
	default:
		fmt.Fprintf(os.Stderr, "slsim: unknown engine %q (have \"goroutine\", \"rtc\")\n", *engineFlag)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	exitOn(err)
	m, err := sdl.Parse(string(src))
	exitOn(err)
	if *persFlag != "" {
		m.Personality = *persFlag
		exitOn(m.Validate())
	}

	show := func(rec *trace.Recorder, title string) {
		fmt.Printf("=== %s ===\n", title)
		if *gantt {
			exitOn(rec.Gantt(os.Stdout, trace.GanttOptions{Width: 64}))
		}
		exitOn(rec.Report(os.Stdout))
		if *events {
			exitOn(rec.EventList(os.Stdout))
		}
		fmt.Println()
	}

	var specRec *trace.Recorder
	if *model == "spec" || *model == "both" {
		rec, err := m.RunUnscheduled()
		exitOn(err)
		specRec = rec
		show(rec, "unscheduled specification model")
	}
	if *model == "arch" || *model == "both" {
		policy, err := core.PolicyByName(*policyFlag, sim.Time(*quantumUs*1000))
		exitOn(err)
		tm := core.TimeModelCoarse
		if *tmFlag == "segmented" {
			tm = core.TimeModelSegmented
		}
		var tel *telemetry.Capture
		var bus []*telemetry.Bus
		if *traceOut != "" || *metricsOut != "" {
			tel = telemetry.NewCapture()
			bus = append(bus, tel.Bus)
		}
		pers := m.Personality
		if pers == "" {
			pers = "generic"
		}
		var rec *trace.Recorder
		if m.MultiPE() && *engineFlag == "rtc" {
			fmt.Fprintln(os.Stderr, "slsim: engine \"rtc\" runs single-PE models; mapped multi-PE architectures need the goroutine kernel")
			os.Exit(2)
		}
		if m.MultiPE() {
			// Models with pe declarations run the mapped architecture:
			// one RTOS instance per software PE, links over buses.
			mappedRec, oss, _, err := m.RunMapped(policy, tm, bus...)
			exitOn(err)
			rec = mappedRec
			show(rec, fmt.Sprintf("mapped architecture model (%s, %s time, %s personality)", policy.Name(), tm, pers))
			for name, osm := range oss {
				st := osm.StatsSnapshot()
				fmt.Printf("RTOS %s: %d dispatches, %d context switches, %d preemptions, idle %v\n",
					name, st.Dispatches, st.ContextSwitches, st.Preemptions, st.IdleTime)
			}
		} else {
			var st core.Stats
			engine := ""
			if *engineFlag == "rtc" {
				res, err := m.RunArchitectureRTC(*policyFlag, sim.Time(*quantumUs*1000), tm, sim.Forever, bus...)
				exitOn(err)
				rec, st, engine = res.Trace, res.Stats, "rtc engine, "
				rec.SetName("sdl-arch-rtc")
			} else {
				var osm *core.OS
				rec, osm, err = m.RunArchitecture(policy, tm, bus...)
				exitOn(err)
				st = osm.StatsSnapshot()
			}
			show(rec, fmt.Sprintf("architecture model (%s%s, %s time, %s personality)", engine, policy.Name(), tm, pers))
			fmt.Printf("RTOS: %d dispatches, %d context switches, %d preemptions, idle %v\n",
				st.Dispatches, st.ContextSwitches, st.Preemptions, st.IdleTime)
		}
		if specRec != nil {
			fmt.Println("\nmilestone drift introduced by the refinement (spec -> arch):")
			exitOn(trace.WriteMarkerDiff(os.Stdout, specRec, rec))
		}
		if *vcdOut != "" {
			f, err := os.Create(*vcdOut)
			exitOn(err)
			exitOn(rec.VCD(io.Writer(f)))
			exitOn(f.Close())
		}
		if tel != nil {
			if *traceOut != "" {
				exitOn(tel.WriteTraceFile(*traceOut))
			}
			if *metricsOut != "" {
				exitOn(tel.WriteMetricsFile(*metricsOut))
			}
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "slsim:", err)
		os.Exit(1)
	}
}
