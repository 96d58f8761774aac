package models

import (
	"time"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The JPEG encoder is the second classic demonstrator of the authors'
// SoC Environment (alongside the GSM vocoder): a block pipeline of
// DCT → quantization → Huffman encoding. Here it exercises the design
// flow's mapping alternatives: the unscheduled specification, a pure
// software mapping (all stages as tasks on one RTOS instance), and a
// hardware/software partition with the DCT on a hardware accelerator PE
// behind the system bus.

// JPEGParams describes the encoder workload: number of 8×8 blocks and
// per-block stage delays. DCTTimeHW applies when the DCT runs on the
// hardware accelerator.
type JPEGParams struct {
	Blocks     int
	QueueDepth int

	DCTTimeSW sim.Time // DCT per block in software
	DCTTimeHW sim.Time // DCT per block on the accelerator
	QuantTime sim.Time // quantization per block
	HuffTime  sim.Time // Huffman encoding per block

	// Bus parameters for the HW/SW mapping.
	BusArbDelay sim.Time
	BusPerByte  sim.Time
	BlockBytes  int // 8×8 samples
}

// DefaultJPEG returns delays in the ratio of typical profiling results:
// the DCT dominates in software and is ~10× faster in hardware.
func DefaultJPEG() JPEGParams {
	return JPEGParams{
		Blocks:      256, // a 128×128 image
		QueueDepth:  2,
		DCTTimeSW:   400 * sim.Microsecond,
		DCTTimeHW:   40 * sim.Microsecond,
		QuantTime:   150 * sim.Microsecond,
		HuffTime:    250 * sim.Microsecond,
		BusArbDelay: 2 * sim.Microsecond,
		BusPerByte:  100,
		BlockBytes:  64,
	}
}

// SmallJPEG is the test-sized configuration.
func SmallJPEG() JPEGParams {
	p := DefaultJPEG()
	p.Blocks = 16
	return p
}

// JPEGResults aggregates one encoder run.
type JPEGResults struct {
	Model      string
	Blocks     int
	Total      sim.Time      // simulated end-to-end encode time
	PerBlock   sim.Time      // Total / Blocks
	Wall       time.Duration // host time
	CtxSwitch  uint64
	BusBusy    sim.Time // HW/SW mapping only
	StageTimes map[string]sim.Time
}

// buildJPEGPipeline constructs the three-stage behavior pipeline on a
// single PE's factory. The source injects blocks as fast as the pipeline
// accepts them (image already in memory).
func buildJPEGPipeline(f channel.Factory, rec *trace.Recorder, par JPEGParams,
	dctTime sim.Time) *refine.Behavior {
	raw := channel.NewQueue[int](f, "raw", par.QueueDepth)
	freq := channel.NewQueue[int](f, "freq", par.QueueDepth)
	quant := channel.NewQueue[int](f, "quantized", par.QueueDepth)

	source := refine.Leaf("source", func(x refine.Exec) {
		p := x.Proc()
		for b := 0; b < par.Blocks; b++ {
			raw.Send(p, b)
		}
	})
	dct := refine.Leaf("dct", func(x refine.Exec) {
		p := x.Proc()
		for b := 0; b < par.Blocks; b++ {
			v := raw.Recv(p)
			x.Delay(dctTime)
			freq.Send(p, v)
		}
	})
	quantB := refine.Leaf("quant", func(x refine.Exec) {
		p := x.Proc()
		for b := 0; b < par.Blocks; b++ {
			v := freq.Recv(p)
			x.Delay(par.QuantTime)
			quant.Send(p, v)
		}
	})
	huff := refine.Leaf("huff", func(x refine.Exec) {
		p := x.Proc()
		for b := 0; b < par.Blocks; b++ {
			v := quant.Recv(p)
			x.Delay(par.HuffTime)
			x.Marker("block-out", int64(v))
		}
	})
	return refine.Seq("jpeg", refine.Par("stages", source, dct, quantB, huff))
}

// jpegResults derives metrics from a finished run.
func jpegResults(model string, par JPEGParams, rec *trace.Recorder,
	end sim.Time, wall time.Duration, cs uint64) JPEGResults {
	res := JPEGResults{
		Model:      model,
		Blocks:     par.Blocks,
		Total:      end,
		Wall:       wall,
		CtxSwitch:  cs,
		StageTimes: map[string]sim.Time{},
	}
	if par.Blocks > 0 {
		res.PerBlock = end / sim.Time(par.Blocks)
	}
	for _, stage := range []string{"dct", "quant", "huff"} {
		res.StageTimes[stage] = rec.BusyTime(stage)
	}
	return res
}

// JPEGSpec runs the unscheduled specification model: all stages truly
// concurrent, so throughput is set by the slowest stage (the software
// DCT).
func JPEGSpec(par JPEGParams) (JPEGResults, *trace.Recorder, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	pe := arch.NewHWPE(k, "PE")
	rec := trace.New("jpeg-spec")
	root := buildJPEGPipeline(pe.Factory(), rec, par, par.DCTTimeSW)
	refine.RunUnscheduled(k, rec, rec, root)
	start := time.Now()
	err := k.Run()
	return jpegResults("unscheduled", par, rec, k.Now(), time.Since(start), 0), rec, err
}

// JPEGSW runs the pure software mapping: every stage becomes a task on one
// RTOS model instance, so stage delays serialize.
func JPEGSW(par JPEGParams, policy core.Policy, tm core.TimeModel) (JPEGResults, *trace.Recorder, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	pe := arch.NewSWPE(k, "CPU", policy, core.WithTimeModel(tm))
	rec := trace.New("jpeg-sw")
	telemetry.Attach(pe.OS(), rec)
	root := buildJPEGPipeline(pe.Factory(), rec, par, par.DCTTimeSW)
	refine.RunArchitecture(k, pe.OS(), rec, root, refine.Mapping{
		"jpeg":   {Priority: 0},
		"source": {Priority: 1},
		"dct":    {Priority: 2},
		"quant":  {Priority: 3},
		"huff":   {Priority: 4},
	})
	pe.OS().Start(nil)
	start := time.Now()
	err := k.Run()
	return jpegResults("software", par, rec, k.Now(), time.Since(start),
		pe.OS().StatsSnapshot().ContextSwitches), rec, err
}

// JPEGHWSW runs the hardware/software partition: the DCT executes on a
// dedicated accelerator PE, fed and drained over the system bus; source,
// quantization and Huffman remain tasks on the CPU.
func JPEGHWSW(par JPEGParams, policy core.Policy, tm core.TimeModel) (JPEGResults, *trace.Recorder, *arch.Bus, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	bus := arch.NewBus(k, "bus", par.BusArbDelay, par.BusPerByte)
	cpu := arch.NewSWPE(k, "CPU", policy, core.WithTimeModel(tm))
	acc := arch.NewHWPE(k, "DCT-ACC")
	rec := trace.New("jpeg-hwsw")
	telemetry.Attach(cpu.OS(), rec)

	toAcc := arch.NewLink[int](bus, "raw", cpu, acc, par.BlockBytes, 0)
	fromAcc := arch.NewLink[int](bus, "freq", acc, cpu, par.BlockBytes, 1*sim.Microsecond)

	// Accelerator: a hardware process performing the DCT per block.
	k.Spawn("dct-hw", func(p *sim.Proc) {
		for b := 0; b < par.Blocks; b++ {
			v := toAcc.Recv(p)
			p.WaitFor(par.DCTTimeHW)
			rec.SegBegin(p.Now()-par.DCTTimeHW, "dct")
			rec.SegEnd(p.Now(), "dct")
			fromAcc.Send(p, v)
		}
	})

	// Software side: source feeds the accelerator, quant+huff drain it.
	f := cpu.Factory()
	quant := channel.NewQueue[int](f, "quantized", par.QueueDepth)
	source := refine.Leaf("source", func(x refine.Exec) {
		p := x.Proc()
		for b := 0; b < par.Blocks; b++ {
			toAcc.Send(p, b)
		}
	})
	quantB := refine.Leaf("quant", func(x refine.Exec) {
		p := x.Proc()
		for b := 0; b < par.Blocks; b++ {
			v := fromAcc.Recv(p)
			x.Delay(par.QuantTime)
			quant.Send(p, v)
		}
	})
	huff := refine.Leaf("huff", func(x refine.Exec) {
		p := x.Proc()
		for b := 0; b < par.Blocks; b++ {
			v := quant.Recv(p)
			x.Delay(par.HuffTime)
			x.Marker("block-out", int64(v))
		}
	})
	root := refine.Seq("jpeg", refine.Par("stages", source, quantB, huff))
	refine.RunArchitecture(k, cpu.OS(), rec, root, refine.Mapping{
		"jpeg":   {Priority: 0},
		"source": {Priority: 1},
		"quant":  {Priority: 3},
		"huff":   {Priority: 4},
	})
	cpu.OS().Start(nil)
	start := time.Now()
	err := k.Run()
	res := jpegResults("hw/sw", par, rec, k.Now(), time.Since(start),
		cpu.OS().StatsSnapshot().ContextSwitches)
	res.BusBusy = bus.BusyTime()
	return res, rec, bus, err
}
