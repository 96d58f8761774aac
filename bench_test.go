// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus the ablations of DESIGN.md's experiment index. Run with
//
//	go test -bench=. -benchmem
//
// Absolute numbers depend on the host; the paper-relevant outputs are the
// ratios (architecture ≈ unscheduled ≪ implementation) and the custom
// metrics reported via b.ReportMetric.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sdl"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/ukernel"
	"repro/internal/vocoder"
	"repro/internal/workload"
)

// benchFrames keeps per-iteration work bounded; Table 1 ratios are stable
// from a few dozen frames on.
const benchFrames = 40

func table1Params() vocoder.Params {
	par := vocoder.Default()
	par.Frames = benchFrames
	return par
}

// BenchmarkTable1_Unscheduled is Table 1 column 1: the specification
// model's simulation cost and transcoding delay.
func BenchmarkTable1_Unscheduled(b *testing.B) {
	par := table1Params()
	var delay sim.Time
	for i := 0; i < b.N; i++ {
		res, _, err := vocoder.RunSpec(par)
		if err != nil {
			b.Fatal(err)
		}
		delay = res.TranscodingDelay
	}
	b.ReportMetric(float64(delay)/1e6, "transcode-ms")
}

// BenchmarkTable1_Architecture is Table 1 column 2: the RTOS-model-based
// architecture model.
func BenchmarkTable1_Architecture(b *testing.B) {
	par := table1Params()
	var delay sim.Time
	var switches uint64
	for i := 0; i < b.N; i++ {
		res, _, err := vocoder.RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse)
		if err != nil {
			b.Fatal(err)
		}
		delay, switches = res.TranscodingDelay, res.ContextSwitches
	}
	b.ReportMetric(float64(delay)/1e6, "transcode-ms")
	b.ReportMetric(float64(switches)/float64(benchFrames), "switches/frame")
}

// BenchmarkTable1_Implementation is Table 1 column 3: the ISS-based
// implementation model (expected orders of magnitude slower per frame).
func BenchmarkTable1_Implementation(b *testing.B) {
	par := table1Params()
	var delay sim.Time
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, _, err := vocoder.RunImpl(par, false)
		if err != nil {
			b.Fatal(err)
		}
		delay, insts = res.TranscodingDelay, res.Instructions
	}
	b.ReportMetric(float64(delay)/1e6, "transcode-ms")
	b.ReportMetric(float64(insts)/float64(b.Elapsed().Seconds()+1e-9)/float64(b.N), "iss-insts/s")
}

// loadFigure3 opens the built-in Figure 3 model, failing the benchmark on
// error.
func loadFigure3(b *testing.B) *sdl.Model {
	b.Helper()
	m, err := sdl.Load("figure3")
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFigure8_Unscheduled regenerates Figure 8(a).
func BenchmarkFigure8_Unscheduled(b *testing.B) {
	m := loadFigure3(b)
	for i := 0; i < b.N; i++ {
		if _, err := m.RunUnscheduled(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResponse runs m's architecture model b.N times under tm and
// reports B3's response to the interrupt (ext-data - t4) as metric.
func benchResponse(b *testing.B, m *sdl.Model, tm core.TimeModel, metric string) {
	var resp sim.Time
	for i := 0; i < b.N; i++ {
		rec, _, err := m.RunArchitecture(core.PriorityPolicy{}, tm)
		if err != nil {
			b.Fatal(err)
		}
		resp = rec.MarkerTimes("ext-data")[0] - m.IRQs[0].At
	}
	b.ReportMetric(float64(resp), metric)
}

// BenchmarkFigure8_Architecture regenerates Figure 8(b) and reports the
// delayed-preemption response (t4' - t4).
func BenchmarkFigure8_Architecture(b *testing.B) {
	benchResponse(b, loadFigure3(b), core.TimeModelCoarse, "t4'-t4-ns")
}

// BenchmarkGranularity is the F8-PREC ablation: response error of the
// coarse time model at several d6 annotation granularities, and the
// segmented model as the zero-error reference.
func BenchmarkGranularity(b *testing.B) {
	for _, chunks := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("coarse-chunks-%d", chunks), func(b *testing.B) {
			m := loadFigure3(b)
			if err := m.SplitDelay("B2", 3, chunks); err != nil { // statement 3 of B2 is d6
				b.Fatal(err)
			}
			benchResponse(b, m, core.TimeModelCoarse, "resp-error-ns")
		})
	}
	b.Run("segmented", func(b *testing.B) {
		benchResponse(b, loadFigure3(b), core.TimeModelSegmented, "resp-error-ns")
	})
}

// BenchmarkOverhead_RawKernel vs BenchmarkOverhead_RTOSModel quantify the
// Table 1 "Execution Time" claim: the RTOS model layer adds only a small
// constant factor over the bare SLDL kernel.
func BenchmarkOverhead_RawKernel(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("tasks-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel()
				for j := 0; j < n; j++ {
					k.Spawn(fmt.Sprintf("p%d", j), func(p *sim.Proc) {
						for s := 0; s < 500; s++ {
							p.WaitFor(100)
						}
					})
				}
				if err := k.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverhead_RTOSModel is the same workload through the RTOS layer.
func BenchmarkOverhead_RTOSModel(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("tasks-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel()
				rtos := core.New(k, "PE", core.PriorityPolicy{})
				for j := 0; j < n; j++ {
					task := rtos.TaskCreate(fmt.Sprintf("t%d", j), core.Aperiodic, 0, 0, j)
					k.Spawn(task.Name(), func(p *sim.Proc) {
						rtos.TaskActivate(p, task)
						for s := 0; s < 500; s++ {
							rtos.TimeWait(p, 100)
						}
						rtos.TaskTerminate(p)
					})
				}
				rtos.Start(nil)
				if err := k.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulers is the SCHED experiment: the same task set under
// every scheduling policy, reporting the deadline miss ratio.
func BenchmarkSchedulers(b *testing.B) {
	policies := []core.Policy{
		core.FCFSPolicy{},
		core.RoundRobinPolicy{Quantum: 5 * sim.Millisecond},
		core.PriorityPolicy{},
		core.RMPolicy{},
		core.EDFPolicy{},
	}
	for _, pol := range policies {
		b.Run(pol.Name(), func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				specs := workload.PeriodicSet(workload.NewRNG(7), 8, 0.85)
				res, err := workload.Run(specs, pol, core.TimeModelSegmented, 2*sim.Second)
				if err != nil {
					b.Fatal(err)
				}
				miss = res.MissRatio()
			}
			b.ReportMetric(100*miss, "miss-%")
		})
	}
}

// BenchmarkKernelContextSwitch measures the cost of one modeled RTOS
// dispatch round trip (event handover between two tasks).
func BenchmarkKernelContextSwitch(b *testing.B) {
	k := sim.NewKernel()
	rtos := core.New(k, "PE", core.PriorityPolicy{})
	f := channel.RTOSFactory{OS: rtos}
	ping := channel.NewSemaphore(f, "ping", 0)
	pong := channel.NewSemaphore(f, "pong", 0)
	a := rtos.TaskCreate("a", core.Aperiodic, 0, 0, 1)
	c := rtos.TaskCreate("b", core.Aperiodic, 0, 0, 2)
	n := b.N
	k.Spawn("a", func(p *sim.Proc) {
		rtos.TaskActivate(p, a)
		for i := 0; i < n; i++ {
			rtos.TimeWait(p, 1)
			ping.Release(p)
			pong.Acquire(p)
		}
		rtos.TaskTerminate(p)
	})
	k.Spawn("b", func(p *sim.Proc) {
		rtos.TaskActivate(p, c)
		for i := 0; i < n; i++ {
			ping.Acquire(p)
			pong.Release(p)
		}
		rtos.TaskTerminate(p)
	})
	rtos.Start(nil)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimPrimitives measures the bare kernel's waitfor throughput.
func BenchmarkSimPrimitives(b *testing.B) {
	k := sim.NewKernel()
	n := b.N
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.WaitFor(10)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMultiPE is the EXT-MP experiment: the vocoder partitioned onto
// two PEs over a bus; the reported transcoding delay should sit near the
// unscheduled bound.
func BenchmarkMultiPE(b *testing.B) {
	mp := vocoder.DefaultMultiPE()
	mp.Frames = benchFrames
	var delay sim.Time
	for i := 0; i < b.N; i++ {
		res, _, err := vocoder.RunMultiPE(mp, core.PriorityPolicy{}, core.TimeModelCoarse)
		if err != nil {
			b.Fatal(err)
		}
		delay = res.TranscodingDelay
	}
	b.ReportMetric(float64(delay)/1e6, "transcode-ms")
}

// BenchmarkJPEGMappings is the EXT-JPEG experiment: per-block encode time
// under the three mappings, at the built-in models' 16 blocks.
func BenchmarkJPEGMappings(b *testing.B) {
	const blocks = 16
	sw, err := sdl.Load("jpeg")
	if err != nil {
		b.Fatal(err)
	}
	hw, err := sdl.Load("jpeg_hwsw")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() (*trace.Recorder, error)
	}{
		{"spec", sw.RunUnscheduled},
		{"software", func() (*trace.Recorder, error) {
			rec, _, err := sw.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
			return rec, err
		}},
		{"hwsw", func() (*trace.Recorder, error) {
			rec, _, _, err := hw.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse)
			return rec, err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var perBlock sim.Time
			for i := 0; i < b.N; i++ {
				rec, err := c.run()
				if err != nil {
					b.Fatal(err)
				}
				perBlock = rec.End() / blocks
			}
			b.ReportMetric(float64(perBlock)/1e3, "block-us")
		})
	}
}

// BenchmarkSMPDhall is the EXT-SMP experiment: global RM on 2 CPUs over
// the Dhall task set, reporting the miss count that partitioned mapping
// avoids.
func BenchmarkSMPDhall(b *testing.B) {
	var missed int
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		os := core.New(k, "SMP", core.RMPolicy{}, core.WithCPUs(2), core.WithTimeModel(core.TimeModelSegmented))
		specs := []struct {
			name         string
			period, wcet sim.Time
		}{{"light1", 100, 10}, {"light2", 100, 10}, {"heavy", 105, 100}}
		var tasks []*core.Task
		for _, s := range specs {
			s := s
			task := os.TaskCreate(s.name, core.Periodic, s.period, s.wcet, 0)
			tasks = append(tasks, task)
			k.Spawn(s.name, func(p *sim.Proc) {
				os.TaskActivate(p, task)
				for c := 0; c < 10; c++ {
					os.TimeWait(p, s.wcet)
					os.TaskEndCycle(p)
				}
				os.TaskTerminate(p)
			})
		}
		os.Start(nil) // global RM: priorities by period
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		missed = 0
		for _, t := range tasks {
			missed += t.MissedDeadlines()
		}
	}
	b.ReportMetric(float64(missed), "misses")
}

// BenchmarkSynthesis is the EXT-SYNTH experiment: generate firmware for a
// task set and co-simulate it on the ISS.
func BenchmarkSynthesis(b *testing.B) {
	set := &taskset.Set{
		Tasks: []taskset.Task{
			{Name: "ctrl", Type: "periodic", PeriodUs: 500, WcetUs: 100, Prio: 1},
			{Name: "audio", Type: "periodic", PeriodUs: 2000, WcetUs: 600, Prio: 2},
		},
	}
	var insts uint64
	for i := 0; i < b.N; i++ {
		fw, err := synth.Generate(set, ukernel.DefaultCyclePeriod)
		if err != nil {
			b.Fatal(err)
		}
		res, err := fw.Run(10*sim.Millisecond, true)
		if err != nil {
			b.Fatal(err)
		}
		insts = res.Instructions
	}
	b.ReportMetric(float64(insts), "iss-insts")
}

// sweepOnce runs the parallel-batch reference workload — 32 independent
// periodic-set simulations (8 utilizations × 4 seeds) — on the given
// worker count and folds the miss ratios so the compiler keeps the work.
func sweepOnce(b *testing.B, jobs int) float64 {
	type cell struct {
		u    float64
		seed uint64
	}
	var cells []cell
	for _, u := range []float64{0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95} {
		for seed := uint64(1); seed <= 4; seed++ {
			cells = append(cells, cell{u: u, seed: seed})
		}
	}
	results := runner.Map(len(cells), runner.Options{Jobs: jobs}, func(i int) (float64, error) {
		c := cells[i]
		specs := workload.PeriodicSet(workload.NewRNG(c.seed), 8, c.u)
		res, err := workload.Run(specs, core.EDFPolicy{}, core.TimeModelSegmented, sim.Second)
		if err != nil {
			return 0, err
		}
		return res.MissRatio(), nil
	})
	total := 0.0
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		total += r.Value
	}
	return total
}

// BenchmarkSequentialSweep vs BenchmarkParallelSweep measure the batch
// engine on the SCHED-style utilization sweep. On an N-core machine the
// parallel variant should approach N× (≥2× on ≥4 cores); on a single
// core the two are equivalent, which is itself the determinism story:
// worker count changes wall-clock only, never results.
func BenchmarkSequentialSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepOnce(b, 1)
	}
}

// BenchmarkParallelSweep is the same sweep on runtime.NumCPU() workers.
func BenchmarkParallelSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepOnce(b, runtime.NumCPU())
	}
}

// BenchmarkISSThroughput measures raw interpreted instructions per second
// of the implementation-model processor.
func BenchmarkISSThroughput(b *testing.B) {
	res, _, err := vocoder.RunImpl(vocoder.Small(), false)
	if err != nil {
		b.Fatal(err)
	}
	perRun := res.Instructions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vocoder.RunImpl(vocoder.Small(), false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perRun)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}
