// Command experiments regenerates every table and figure of the paper's
// evaluation plus this repository's extension experiments (see DESIGN.md's
// per-experiment index):
//
//	table1       Table 1 (vocoder: LoC, execution time, context switches,
//	             transcoding delay across the three models)
//	figure8      Figure 8 (simulation traces of the Figure 3 example)
//	granularity  F8-PREC ablation: preemption accuracy vs delay granularity
//	overhead     OVH: simulation overhead of the RTOS model layer
//	sched        SCHED: scheduling algorithms vs utilization (miss ratios)
//	refine       REFINE: refinement effort (lines of code, mapping size)
//	multipe      EXT-MP: two-PE vocoder mapping (paper future work)
//	smp          EXT-SMP: global multiprocessor scheduling, Dhall's effect
//	synth        EXT-SYNTH: software synthesis to generated ISS firmware
//	dse          EXT-DSE: design-space exploration over the vocoder
//	faults       FAULT: fault-injection campaign with runtime diagnosis
//	all          everything above
//
// Run with: go run ./cmd/experiments -exp all [-frames 163] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/fault"
	"repro/internal/loccount"
	"repro/internal/refine"
	"repro/internal/rtc"
	"repro/internal/runner"
	"repro/internal/sdl"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/taskset"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/ukernel"
	"repro/internal/vocoder"
	"repro/internal/workload"
)

var (
	quick = flag.Bool("quick", false, "smaller workloads for a fast pass")
	jobs  = flag.Int("jobs", runtime.NumCPU(),
		"concurrent simulations for the batch experiments (sched, dse); 1 = sequential")
	traceOut = flag.String("trace-out", "",
		"write the table1 architecture run as Chrome trace-event JSON (Perfetto)")
	metricsOut = flag.String("metrics-out", "",
		"write scheduler metrics in Prometheus text format (table1: vocoder run; sched: merged sweep report; last writer wins under -exp all)")
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|figure8|granularity|overhead|sched|refine|multipe|smp|all")
	frames := flag.Int("frames", 163, "vocoder frames for table1/overhead")
	flag.Parse()

	run := map[string]func(int){
		"table1":      table1,
		"figure8":     func(int) { figure8() },
		"granularity": func(int) { granularity() },
		"overhead":    overhead,
		"sched":       func(int) { sched() },
		"refine":      func(int) { refineEffort() },
		"multipe":     multiPE,
		"smp":         func(int) { smpDhall() },
		"synth":       func(int) { synthesis() },
		"dse":         func(int) { designSpace() },
		"faults":      func(int) { faultCampaign() },
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "figure8", "granularity", "overhead", "sched", "refine", "multipe", "smp", "synth", "dse", "faults"} {
			run[name](*frames)
		}
		return
	}
	fn, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	fn(*frames)
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n\n", title)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// ---------------------------------------------------------------------------
// T1: Table 1.

func table1(frames int) {
	header("T1: Table 1 — vocoder across the three models")
	par := vocoder.Default()
	par.Frames = frames
	if *quick {
		par.Frames = 20
	}

	spec, _, err := vocoder.RunSpec(par)
	check(err)
	tel := telemetry.NewCapture()
	stream := trace.New("table1-stream") // the same event stream, in trace form
	arch, _, err := vocoder.RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse, tel.Bus, telemetry.NewBus(stream))
	check(err)
	impl, _, err := vocoder.RunImpl(par, false)
	check(err)
	specLoC, archLoC, implLoC, locErr := loccount.ModelLoC(vocoder.FirmwareLines())

	fmt.Printf("frames: %d (paper's arch model logs 327 switches ≈ 2/frame over 163 frames)\n\n", par.Frames)
	fmt.Printf("%-22s %15s %15s %15s\n", "", "unscheduled", "architecture", "implementation")
	if locErr == nil {
		fmt.Printf("%-22s %15d %15d %15d\n", "Lines of Code", specLoC, archLoC, implLoC)
	}
	fmt.Printf("%-22s %15v %15v %15v\n", "Execution Time", spec.Wall.Round(10*time.Microsecond),
		arch.Wall.Round(10*time.Microsecond), impl.Wall.Round(10*time.Microsecond))
	fmt.Printf("%-22s %15d %15d %15d\n", "Context switches", spec.ContextSwitches,
		arch.ContextSwitches, impl.ContextSwitches)
	fmt.Printf("%-22s %15v %15v %15v\n", "Transcoding delay", spec.TranscodingDelay,
		arch.TranscodingDelay, impl.TranscodingDelay)
	// Table 1's architecture-model figures re-derived from the telemetry
	// event stream alone (no core.Stats): the context-switch count comes
	// from the aggregated dispatch events, the transcoding delay from the
	// frame markers.
	rep := tel.Report()
	var telSwitches uint64
	for _, pe := range rep.PEs {
		telSwitches += pe.ContextSwitches
	}
	var telDelay sim.Time
	if lats := stream.Latencies("frame-in", "frame-out"); len(lats) > 0 {
		var sum sim.Time
		for _, d := range lats {
			sum += d
		}
		telDelay = sum / sim.Time(len(lats))
	}
	fmt.Printf("\ntelemetry cross-check (architecture model, derived from the event stream):\n")
	fmt.Printf("        context switches %d (stats: %d, match %v) · transcoding delay %v (match %v)\n",
		telSwitches, arch.ContextSwitches, telSwitches == arch.ContextSwitches,
		telDelay, telDelay == arch.TranscodingDelay)
	if *traceOut != "" {
		check(tel.WriteTraceFile(*traceOut))
		fmt.Printf("        Chrome trace written to %s\n", *traceOut)
	}
	if *metricsOut != "" {
		check(tel.WriteMetricsFile(*metricsOut))
		fmt.Printf("        metrics written to %s\n", *metricsOut)
	}
	fmt.Printf("\npaper:  LoC 13475/15552/79096 · time 24.0s/24.4s/5h · switches 0/327/326 ·\n")
	fmt.Printf("        delay 9.7ms/12.5ms/11.7ms\n")
	fmt.Printf("shape:  unsched < arch ≈ impl delay: %v; arch tracks impl switches: %v;\n",
		spec.TranscodingDelay < arch.TranscodingDelay,
		diffWithin(arch.ContextSwitches, impl.ContextSwitches, 4))
	fmt.Printf("        impl simulation ≫ abstract models: %v (×%d)\n",
		impl.Wall > 10*arch.Wall, int64(impl.Wall/maxDur(arch.Wall, time.Microsecond)))
}

func diffWithin(a, b uint64, d int64) bool {
	x := int64(a) - int64(b)
	return x >= -d && x <= d
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// F8: Figure 8.

func figure8() {
	header("F8: Figure 8 — simulation traces of the Figure 3 example")
	fig3, err := sdl.Load("figure3")
	check(err)

	specRec, err := fig3.RunUnscheduled()
	check(err)
	archRec, osm, err := fig3.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
	check(err)

	gopts := trace.GanttOptions{Width: 64, Tasks: []string{"B1", "B2", "B3"}}
	fmt.Println("(a) unscheduled model — B2 and B3 truly parallel:")
	check(specRec.Gantt(os.Stdout, gopts))
	fmt.Printf("    overlap(B2,B3)=%v end=%v ctxSwitches=0\n\n",
		specRec.Overlap("B2", "B3"), specRec.End())

	fmt.Println("(b) architecture model — priority scheduling, coarse time model:")
	gopts.Tasks = []string{"PE", "B2", "B3"}
	check(archRec.Gantt(os.Stdout, gopts))
	st := osm.StatsSnapshot()
	fmt.Printf("    overlap(B2,B3)=%v end=%v ctxSwitches=%d preemptions=%d\n",
		archRec.Overlap("B2", "B3"), archRec.End(), st.ContextSwitches, st.Preemptions)

	fmt.Println("\nevent timeline (architecture model):")
	for _, m := range []string{"c1-send", "c1-recv", "ext-data", "c2-send", "c2-recv"} {
		fmt.Printf("    %-9s at %v\n", m, archRec.MarkerTimes(m))
	}
	t4p := archRec.MarkerTimes("ext-data")[0]
	t4 := fig3.IRQs[0].At
	fmt.Printf("\nshape: serialized (overlap 0): %v; t4=%v delayed to t4'=%v (end of d6): %v\n",
		archRec.Overlap("B2", "B3") == 0, t4, t4p, t4p > t4)
}

// ---------------------------------------------------------------------------
// F8-PREC: granularity ablation.

func granularity() {
	header("F8-PREC: preemption accuracy vs delay-annotation granularity")
	fmt.Println("B3's response to the interrupt at t4 (coarse model switches at the end")
	fmt.Println("of B2's current time step; finer d6 annotation = earlier switch):")
	fmt.Printf("\n%-10s %-12s %-16s %-14s\n", "model", "d6 chunks", "response of B3", "error vs ideal")
	for _, chunks := range []int{1, 2, 4, 8, 16, 32} {
		m, err := sdl.Load("figure3")
		check(err)
		check(m.SplitDelay("B2", 3, chunks)) // statement 3 of B2 is d6
		rec, _, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
		check(err)
		resp := rec.MarkerTimes("ext-data")[0] - m.IRQs[0].At
		fmt.Printf("%-10s %-12d %-16v %-14v\n", "coarse", chunks, resp, resp)
	}
	m, err := sdl.Load("figure3")
	check(err)
	rec, _, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelSegmented)
	check(err)
	resp := rec.MarkerTimes("ext-data")[0] - m.IRQs[0].At
	fmt.Printf("%-10s %-12s %-16v %-14v\n", "segmented", "-", resp, resp)
	fmt.Println("\nshape: error shrinks monotonically with finer annotations and is zero in")
	fmt.Println("the segmented extension — the paper's Section 4.3 accuracy statement.")
}

// ---------------------------------------------------------------------------
// OVH: simulation overhead.

func overhead(frames int) {
	header("OVH: simulation overhead of the RTOS model layer")
	if *quick {
		frames = 20
	}
	par := vocoder.Default()
	par.Frames = frames
	spec, _, err := vocoder.RunSpec(par)
	check(err)
	arch, _, err := vocoder.RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse)
	check(err)
	impl, _, err := vocoder.RunImpl(par, false)
	check(err)
	implSkip, _, err := vocoder.RunImpl(par, true)
	check(err)
	fmt.Printf("vocoder wall times (%d frames):\n", par.Frames)
	fmt.Printf("  unscheduled model            %12v\n", spec.Wall)
	fmt.Printf("  architecture model (RTOS)    %12v   overhead vs unscheduled: %+.1f%%\n",
		arch.Wall, 100*(float64(arch.Wall)/float64(maxDur(spec.Wall, time.Microsecond))-1))
	fmt.Printf("  implementation model (ISS)   %12v   (%d instructions)\n", impl.Wall, impl.Instructions)
	fmt.Printf("  implementation + idle skip   %12v   (%d instructions)\n", implSkip.Wall, implSkip.Instructions)

	// Parametric kernel-level overhead: N tasks × K delay segments, raw
	// SLDL processes vs RTOS tasks.
	fmt.Println("\nparametric overhead (N tasks × 2000 delay segments each):")
	fmt.Printf("%6s %14s %14s %10s\n", "N", "raw kernel", "RTOS model", "ratio")
	for _, n := range []int{2, 8, 32} {
		raw := timeRawKernel(n, 2000)
		rtos := timeRTOS(n, 2000)
		fmt.Printf("%6d %14v %14v %9.2fx\n", n, raw, rtos,
			float64(rtos)/float64(maxDur(raw, time.Microsecond)))
	}
	fmt.Println("\nshape: the RTOS model layer costs a small constant factor over the bare")
	fmt.Println("SLDL kernel, while the ISS costs orders of magnitude (paper: 24.0s -> 24.4s -> 5h).")
}

func timeRawKernel(n, segs int) time.Duration {
	k := sim.NewKernel()
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			for s := 0; s < segs; s++ {
				p.WaitFor(100)
			}
		})
	}
	start := time.Now()
	if err := k.Run(); err != nil {
		check(err)
	}
	return time.Since(start)
}

func timeRTOS(n, segs int) time.Duration {
	k := sim.NewKernel()
	rtos := core.New(k, "PE", core.PriorityPolicy{})
	for i := 0; i < n; i++ {
		task := rtos.TaskCreate(fmt.Sprintf("t%d", i), core.Aperiodic, 0, 0, i)
		k.Spawn(task.Name(), func(p *sim.Proc) {
			rtos.TaskActivate(p, task)
			for s := 0; s < segs; s++ {
				rtos.TimeWait(p, 100)
			}
			rtos.TaskTerminate(p)
		})
	}
	rtos.Start(nil)
	start := time.Now()
	if err := k.Run(); err != nil {
		check(err)
	}
	return time.Since(start)
}

// ---------------------------------------------------------------------------
// SCHED: scheduling algorithms vs utilization.

func sched() {
	header("SCHED: scheduling algorithms vs utilization (deadline miss ratio)")
	policies := []core.Policy{
		core.FCFSPolicy{},
		core.RoundRobinPolicy{Quantum: 5 * sim.Millisecond},
		core.PriorityPolicy{},
		core.RMPolicy{},
		core.EDFPolicy{},
	}
	utils := []float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95}
	seeds := []uint64{1, 2, 3}
	horizon := 5 * sim.Second
	n := 8
	if *quick {
		horizon = 2 * sim.Second
		seeds = seeds[:1]
	}
	fmt.Printf("%d periodic tasks, horizon %v, mean of %d seeds; miss ratio in %%\n\n",
		n, horizon, len(seeds))
	fmt.Printf("%6s", "U")
	for _, p := range policies {
		fmt.Printf(" %9s", p.Name())
	}
	fmt.Println()
	// Every (utilization, policy, seed) cell is an independent kernel, so
	// the sweep runs on the worker pool; results come back in submission
	// order, which keeps the table byte-identical to a sequential run.
	type cell struct {
		u    float64
		pol  core.Policy
		seed uint64
	}
	var cells []cell
	for _, u := range utils {
		for _, pol := range policies {
			for _, seed := range seeds {
				cells = append(cells, cell{u: u, pol: pol, seed: seed})
			}
		}
	}
	// Each job also aggregates its own telemetry; the per-cell reports are
	// merged into one sweep-wide metrics report after the pool drains.
	type cellResult struct {
		miss float64
		rep  *telemetry.Report
	}
	results := runner.Map(len(cells), runner.Options{Jobs: *jobs}, func(i int) (cellResult, error) {
		c := cells[i]
		specs := workload.PeriodicSet(workload.NewRNG(c.seed), n, c.u)
		agg := telemetry.NewAggregator()
		res, err := workload.Run(specs, c.pol, core.TimeModelSegmented, horizon,
			telemetry.NewBus(agg))
		if err != nil {
			return cellResult{}, err
		}
		agg.SetEnd(horizon)
		return cellResult{miss: res.MissRatio(), rep: agg.Report()}, nil
	})
	i := 0
	for _, u := range utils {
		fmt.Printf("%6.2f", u)
		for range policies {
			total := 0.0
			for range seeds {
				check(results[i].Err)
				total += results[i].Value.miss
				i++
			}
			fmt.Printf(" %8.1f%%", 100*total/float64(len(seeds)))
		}
		fmt.Println()
	}
	if *metricsOut != "" {
		vals, err := runner.Values(results)
		check(err)
		reps := make([]*telemetry.Report, len(vals))
		for j, v := range vals {
			reps[j] = v.rep
		}
		check(telemetry.WriteMetricsFile(*metricsOut, telemetry.Merge(reps...)))
		fmt.Printf("\nmerged sweep metrics (%d runs) written to %s\n", len(reps), *metricsOut)
	}
	fmt.Println("\nshape: EDF ≈ RM ≈ 0 up to high utilization (EDF optimal, RM near-optimal")
	fmt.Println("for these sets); FCFS degrades earliest (non-preemptive blocking);")
	fmt.Println("all policies run the same unmodified application model — the paper's")
	fmt.Println("start(sched_alg) design-space exploration.")
}

// ---------------------------------------------------------------------------
// EXT-MP: multiprocessor mapping (the paper's future work).

func multiPE(frames int) {
	header("EXT-MP: two-PE mapping (paper future work: multiprocessor systems)")
	mp := vocoder.DefaultMultiPE()
	mp.Frames = frames
	if *quick {
		mp.Frames = 20
	}
	spec, _, err := vocoder.RunSpec(mp.Params)
	check(err)
	single, _, err := vocoder.RunArch(mp.Params, core.PriorityPolicy{}, core.TimeModelCoarse)
	check(err)
	multi, _, err := vocoder.RunMultiPE(mp, core.PriorityPolicy{}, core.TimeModelCoarse)
	check(err)
	fmt.Printf("%-28s %18s %18s %18s\n", "", "unscheduled", "1 PE (arch)", "2 PEs (arch)")
	fmt.Printf("%-28s %18v %18v %18v\n", "transcoding delay",
		spec.TranscodingDelay, single.TranscodingDelay, multi.TranscodingDelay)
	fmt.Printf("%-28s %18d %18d %18d\n", "context switches",
		spec.ContextSwitches, single.ContextSwitches, multi.ContextSwitches)
	fmt.Println("\nshape: a CPU per task restores the encode/decode pipeline overlap, so the")
	fmt.Println("two-PE delay returns to the unscheduled bound plus bus/ISR communication")
	fmt.Println("cost — the kind of architecture decision the abstract models let a designer")
	fmt.Println("evaluate in milliseconds instead of ISS hours.")
}

// ---------------------------------------------------------------------------
// EXT-SMP: global multiprocessor scheduling and Dhall's effect.

func smpDhall() {
	header("EXT-SMP: global multiprocessor scheduling (Dhall's effect)")
	const cycles = 10
	type spec struct {
		name         string
		period, wcet sim.Time
		rmPrio       int // rate-monotonic rank: priority by period
	}
	set := []spec{
		{"light1", 100, 10, 0},
		{"light2", 100, 10, 1},
		{"heavy", 105, 100, 2},
	}
	fmt.Println("2 CPUs; tasks light1/light2 (T=100, C=10) and heavy (T=105, C=100);")
	fmt.Printf("total utilization %.3f of 2.0 — trivially feasible when partitioned.\n\n", 0.1+0.1+100.0/105)

	runGlobal := func(policy string) (missed int, migrations uint64) {
		w := rtc.Workload{Policy: policy, CPUs: 2, TimeModel: core.TimeModelSegmented, Horizon: sim.Forever}
		for _, s := range set {
			w.Tasks = append(w.Tasks, rtc.TaskDef{Name: s.name, Type: "periodic", Prio: s.rmPrio,
				Period: s.period, Cycles: cycles, Segments: []sim.Time{s.wcet}})
		}
		r := rtc.RunGoroutine(w)
		check(r.Err)
		for _, t := range r.Tasks {
			missed += t.Missed
		}
		return missed, r.Migrations
	}
	missRM, migRM := runGlobal("g-fp")
	missEDF, migEDF := runGlobal("g-edf")

	// Partitioned mapping on two uniprocessor RTOS model instances.
	k := sim.NewKernel()
	cpu0 := core.New(k, "CPU0", core.RMPolicy{}, core.WithTimeModel(core.TimeModelSegmented))
	cpu1 := core.New(k, "CPU1", core.RMPolicy{}, core.WithTimeModel(core.TimeModelSegmented))
	missPart := 0
	var partTasks []*core.Task
	mk := func(os *core.OS, s spec) {
		task := os.TaskCreate(s.name, core.Periodic, s.period, s.wcet, 0)
		partTasks = append(partTasks, task)
		k.Spawn(s.name, func(p *sim.Proc) {
			os.TaskActivate(p, task)
			for c := 0; c < cycles; c++ {
				os.TimeWait(p, s.wcet)
				os.TaskEndCycle(p)
			}
			os.TaskTerminate(p)
		})
	}
	mk(cpu0, set[0])
	mk(cpu0, set[1])
	mk(cpu1, set[2])
	cpu0.Start(nil)
	cpu1.Start(nil)
	check(k.Run())
	for _, t := range partTasks {
		missPart += t.MissedDeadlines()
	}

	fmt.Printf("%-26s %10s %12s\n", "mapping", "misses", "migrations")
	fmt.Printf("%-26s %10d %12d\n", "global RM (2 CPUs)", missRM, migRM)
	fmt.Printf("%-26s %10d %12d\n", "global EDF (2 CPUs)", missEDF, migEDF)
	fmt.Printf("%-26s %10d %12s\n", "partitioned RM (1+1 CPU)", missPart, "0")
	fmt.Println("\nshape: both global policies miss (the light tasks monopolize all CPUs at")
	fmt.Println("each release, starving the heavy task — Dhall's effect), while the")
	fmt.Println("partitioned mapping on two instances of the paper's uniprocessor RTOS")
	fmt.Println("model meets every deadline.")
}

// ---------------------------------------------------------------------------
// EXT-SYNTH: software synthesis down to the implementation model (the
// paper's stated future work).

func synthesis() {
	header("EXT-SYNTH: software synthesis (architecture model -> generated firmware)")
	horizon := 20 * sim.Time(1e6)
	seeds := []uint64{1, 2, 3, 4}
	fmt.Println("Random periodic task sets simulated on the architecture model and as")
	fmt.Println("GENERATED assembly on the ISS + micro-kernel; per-set comparison:")
	fmt.Printf("\n%4s %6s %14s %14s %16s %16s\n",
		"set", "U", "arch misses", "impl misses", "arch switches", "impl switches")
	for _, seed := range seeds {
		specs := workload.PeriodicSet(workload.NewRNG(seed), 4, 0.6)
		set := &taskset.Set{Policy: "priority", TimeModel: "segmented", HorizonMs: 20}
		for _, s := range specs {
			set.Tasks = append(set.Tasks, taskset.Task{
				Name: s.Name, Type: "periodic",
				PeriodUs: float64(s.Period) / 1000, WcetUs: float64(s.WCET) / 1000,
				Prio: s.Prio,
			})
		}
		archRes, err := taskset.Run(set)
		check(err)
		fw, err := synth.Generate(set, ukernel.DefaultCyclePeriod)
		check(err)
		implRes, err := fw.Run(horizon, true)
		check(err)
		am, im := 0, int64(0)
		for _, t := range archRes.Tasks {
			am += t.Missed
		}
		for _, t := range implRes.Tasks {
			im += t.Missed
		}
		fmt.Printf("%4d %6.2f %14d %14d %16d %16d\n",
			seed, workload.Utilization(specs), am, im,
			archRes.Stats.ContextSwitches, implRes.Stats.ContextSwitches)
	}
	fmt.Println("\nshape: the generated implementation agrees with the abstract model on")
	fmt.Println("schedulability and tracks its scheduling activity — the backend path the")
	fmt.Println("paper's future work calls for (\"software synthesis from the architecture")
	fmt.Println("model down to target-specific application code\"), fully automated.")
}

// ---------------------------------------------------------------------------
// EXT-DSE: design-space exploration — the activity the model exists for.

func designSpace() {
	header("EXT-DSE: design-space exploration over the vocoder architecture")
	par := vocoder.Default()
	par.Frames = 40
	if *quick {
		par.Frames = 10
	}
	// Tighten the frame period to ~110% utilization (transient overload): under load the
	// mapping decisions actually matter, so the exploration discriminates.
	par.FramePeriod = 9300 * sim.Microsecond
	axes := []dse.Axis{
		{Name: "policy", Values: []string{"priority", "fcfs", "rr"}},
		{Name: "order", Values: []string{"enc-first", "dec-first"}},
		{Name: "time", Values: []string{"coarse", "segmented"}},
	}
	eval := func(c dse.Config) (float64, map[string]float64, error) {
		p := par
		if c["order"] == "dec-first" {
			p.PrioEnc, p.PrioDec = 2, 1
		}
		pol, err := core.PolicyByName(c["policy"], 2*sim.Millisecond)
		if err != nil {
			return 0, nil, err
		}
		tm := core.TimeModelCoarse
		if c["time"] == "segmented" {
			tm = core.TimeModelSegmented
		}
		res, _, err := vocoder.RunArch(p, pol, tm)
		if err != nil {
			return 0, nil, err
		}
		return float64(res.TranscodingDelay) / 1e6, map[string]float64{
			"switches": float64(res.ContextSwitches),
		}, nil
	}
	cache, err := dse.NewCache("")
	check(err)
	coldStart := time.Now()
	points := dse.Explore(axes, eval, dse.WithJobs(*jobs),
		dse.WithCache(cache, nil), dse.WithObjectives("cost", "switches"))
	cold := time.Since(coldStart)
	fmt.Printf("cost = transcoding delay (ms), %d frames, %d configurations:\n\n",
		par.Frames, len(points))
	fmt.Print(dse.Table(points, "delay-ms"))
	best, err := dse.Best(points)
	check(err)
	fmt.Printf("\nbest: %s at %.3f ms (%0.f context switches)\n",
		best.Config.Key(), best.Cost, best.Aux["switches"])

	// Pareto view: delay and scheduling overhead pull in different
	// directions, so the interesting designs are the non-dominated set.
	fmt.Println("\nPareto front (minimize delay-ms AND context switches):")
	for _, p := range dse.ParetoFront(points) {
		fmt.Printf("  %-44s %10.3f ms %8.0f switches\n", p.Config.Key(), p.Cost, p.Aux["switches"])
	}

	// Memoized repeat: the identical sweep answered entirely from the
	// content-hash cache.
	before := cache.Stats()
	warmStart := time.Now()
	dse.Explore(axes, eval, dse.WithJobs(*jobs),
		dse.WithCache(cache, nil), dse.WithObjectives("cost", "switches"))
	warm := time.Since(warmStart)
	after := cache.Stats()
	warmRate := dse.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}.HitRate()
	n := float64(len(points))
	fmt.Printf("\nmemoized repeat: cold %v (%.0f configs/s) -> warm %v (%.0f configs/s), hit rate %.0f%%\n",
		cold.Round(time.Millisecond), n/cold.Seconds(),
		warm.Round(time.Microsecond), n/warm.Seconds(), 100*warmRate)

	forkDemo()

	fmt.Println("\nshape: every configuration evaluates in milliseconds on the abstract")
	fmt.Println("model; the same sweep on the ISS implementation model would take hours —")
	fmt.Println("the paper's case for RTOS modeling at high abstraction levels. Memoizing")
	fmt.Println("and checkpoint-forking shave the repeated and shared work on top.")
}

// forkDemo shows checkpoint-forked sweeps: variants that differ only
// after time T share the [0, T) prefix through one rtc snapshot instead
// of each re-simulating it.
func forkDemo() {
	// A long shared prefix is the point: only the tail differs per
	// variant, so the fork pays [0, forkAt) once plus one restore each.
	horizon := 20 * sim.Second
	if *quick {
		horizon = 5 * sim.Second
	}
	specs := workload.PeriodicSet(workload.NewRNG(7), 64, 0.9)
	base := rtc.Workload{
		Policy:    "priority",
		TimeModel: core.TimeModelSegmented,
		Horizon:   horizon,
	}
	for _, s := range specs {
		base.Tasks = append(base.Tasks, rtc.TaskDef{
			Name: s.Name, Type: "periodic", Prio: s.Prio,
			Period: s.Period, Segments: []sim.Time{s.WCET},
		})
	}
	forkAt := horizon - horizon/20
	variants := []dse.Variant{
		{Name: "priority", Policy: "priority"},
		{Name: "rr", Policy: "rr", Quantum: 5 * sim.Millisecond},
		{Name: "edf", Policy: "edf"},
		{Name: "fcfs", Policy: "fcfs"},
	}

	fullStart := time.Now()
	for _, v := range variants {
		w := base
		w.Policy, w.Quantum = v.Policy, v.Quantum
		if r := rtc.Run(w); r.Err != nil {
			check(r.Err)
		}
	}
	full := time.Since(fullStart)

	forkStart := time.Now()
	results, err := dse.ForkSweep(base, forkAt, variants, *jobs)
	check(err)
	forked := time.Since(forkStart)

	fmt.Printf("\ncheckpoint-forked sweep: %d policy variants forked at %v of %v (rtc engine)\n",
		len(variants), forkAt, base.Horizon)
	fmt.Printf("%-10s %10s %8s\n", "variant", "switches", "missed")
	for _, r := range results {
		check(r.Err)
		missed := 0
		for _, t := range r.Result.Tasks {
			missed += t.Missed
		}
		fmt.Printf("%-10s %10d %8d\n", r.Variant.Name, r.Result.Stats.ContextSwitches, missed)
	}
	fmt.Printf("full re-simulation %v vs checkpoint-forked %v (%.1fx)\n",
		full.Round(time.Millisecond), forked.Round(time.Millisecond),
		float64(full)/float64(forked))
}

// ---------------------------------------------------------------------------
// FAULT: fault-injection campaign with runtime diagnosis.

func faultCampaign() {
	header("FAULT: fault-injection campaign with runtime diagnosis")
	nSeeds := 24
	if *quick {
		nSeeds = 8
	}
	seeds := make([]int64, nSeeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	plans := fault.DefaultPlans()
	c := &fault.Campaign{Seeds: seeds, Plans: plans, Jobs: *jobs}
	start := time.Now()
	cr := c.Run()
	wall := time.Since(start)

	fmt.Printf("%d generated scenarios × %d fault plans, %d workers, wall %v\n\n",
		nSeeds, len(plans), *jobs, wall.Round(time.Millisecond))
	type tally struct{ runs, deadlock, stall, starve, clean, injected int }
	byPlan := map[string]*tally{}
	for _, r := range cr.Results {
		t := byPlan[r.Plan]
		if t == nil {
			t = &tally{}
			byPlan[r.Plan] = t
		}
		t.runs++
		t.injected += r.Injected
		switch d := r.Diagnosed(); {
		case d == nil:
			t.clean++
		case d.Kind == core.DiagDeadlock:
			t.deadlock++
		case d.Kind == core.DiagStarvation:
			t.starve++
		default:
			t.stall++
		}
	}
	fmt.Printf("%-12s %6s %9s %10s %7s %7s %7s %6s\n",
		"plan", "runs", "injected", "deadlocks", "stalls", "starve", "clean", "ok")
	for _, p := range plans {
		t := byPlan[p.Name]
		expect := "-"
		if p.ExpectClean {
			expect = fmt.Sprintf("%v", t.clean == t.runs)
		}
		fmt.Printf("%-12s %6d %9d %10d %7d %7d %7d %6s\n",
			p.Name, t.runs, t.injected, t.deadlock, t.stall, t.starve, t.clean, expect)
	}
	fmt.Printf("\ntotal: %s\n", cr.Summary())
	for _, v := range cr.Violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}

	// The must-detect case: a lost-interrupt fault closes a three-task
	// semaphore ring; the wait-for-graph detector names the exact cycle.
	s, plan := fault.DeadlockScenario()
	res := fault.RunScenario(s, plan, s.Seed, fault.Options{})
	fmt.Println("\nseeded deadlock (drop refill IRQs of a three-task semaphore ring):")
	if d := res.Diagnosed(); d != nil {
		fmt.Printf("  %s diagnosed at %v:\n", d.Kind, d.At)
		for _, e := range d.Cycle {
			fmt.Printf("    %s\n", e)
		}
	} else {
		fmt.Println("  NOT DETECTED — detector regression")
	}
	if *metricsOut != "" {
		check(telemetry.WriteMetricsFile(*metricsOut, cr.Report))
		fmt.Printf("\nmerged campaign metrics written to %s\n", *metricsOut)
	}
	fmt.Println("\nshape: the fault-free and benign plans stay diagnosis-clean (no false")
	fmt.Println("positives), hostile plans produce structured diagnoses instead of hangs,")
	fmt.Println("and the same seeds replay to a byte-identical diagnostic stream on any")
	fmt.Println("worker count (verified continuously by simfuzz -faults).")
}

// ---------------------------------------------------------------------------
// REFINE: refinement effort.

func refineEffort() {
	header("REFINE: refinement effort (paper: 104 lines, <1% of code, <1 hour)")
	specLoC, archLoC, implLoC, err := loccount.ModelLoC(vocoder.FirmwareLines())
	check(err)
	fmt.Printf("lines of code: unscheduled %d -> architecture %d -> implementation %d\n",
		specLoC, archLoC, implLoC)
	fmt.Printf("architecture delta (the RTOS model library): %d lines (paper: ~2000 lines of SpecC)\n\n",
		archLoC-specLoC)

	// The per-design refinement input: the mapping. Everything else is the
	// mechanical primitive substitution performed by internal/refine.
	mapping := refine.Mapping{
		"vocoder": {Priority: 0},
		"encoder": {Priority: 1},
		"decoder": {Priority: 2},
	}
	fmt.Printf("designer input to refine the vocoder: %d mapping entries (one line each)\n", len(mapping))
	fmt.Println("plus selecting the scheduling policy — every waitfor->time_wait,")
	fmt.Println("notify/wait->event_notify/event_wait and par->par_start/par_end")
	fmt.Println("substitution is performed mechanically by the refinement engine,")
	fmt.Println("matching the paper's automated refinement tool.")
}
