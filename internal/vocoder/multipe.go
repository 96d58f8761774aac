package vocoder

import (
	"time"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// MultiPEParams extends the vocoder parameters with the communication
// architecture of a two-processor mapping.
type MultiPEParams struct {
	Params
	BusArbDelay sim.Time // per-transfer bus overhead
	BusPerByte  sim.Time // payload cost
	SubframeLen int      // coded subframe size in bytes
}

// DefaultMultiPE returns a two-PE configuration with a modest bus.
func DefaultMultiPE() MultiPEParams {
	return MultiPEParams{
		Params:      Default(),
		BusArbDelay: 2 * sim.Microsecond,
		BusPerByte:  100, // 100 ns/byte
		SubframeLen: 12,  // ~EFR coded subframe
	}
}

// RunMultiPE executes the paper's future-work scenario: the same codec
// partitioned onto two software PEs — encoder on DSP0, decoder on DSP1 —
// each running its own instance of the RTOS model, communicating over a
// shared bus with the ISR→semaphore→driver receive path. With a CPU per
// task, decoding overlaps encoding again and the transcoding delay drops
// back toward the unscheduled model's bound plus communication cost.
//
// Unlike the single-PE runners, RunMultiPE attaches its recorder to both
// RTOS instances: the returned trace holds both PEs' scheduler events
// besides the frame markers, because the encoder/decoder overlap across
// PEs is read from it.
func RunMultiPE(par MultiPEParams, policy core.Policy, tm core.TimeModel) (Results, *trace.Recorder, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	bus := arch.NewBus(k, "bus", par.BusArbDelay, par.BusPerByte)
	pe0 := arch.NewSWPE(k, "DSP0", policy, core.WithTimeModel(tm))
	pe1 := arch.NewSWPE(k, "DSP1", policy, core.WithTimeModel(tm))
	rec := trace.New("vocoder-multipe")
	telemetry.Attach(pe0.OS(), rec)
	telemetry.Attach(pe1.OS(), rec)

	// Speech input: frame interrupt into PE0, as in the single-PE models.
	frameSem := channel.NewSemaphore(pe0.Factory(), "frame.sem", 0)
	frameIRQ := pe0.AttachISR("frame.irq", par.ISRTime, func(p *sim.Proc) {
		frameSem.Release(p)
	})
	src := k.Spawn("speech-in", func(p *sim.Proc) {
		for i := 0; i < par.Frames; i++ {
			rec.Marker(p.Now(), "frame-in", "speech-in", int64(i))
			frameIRQ.Raise(p)
			p.WaitFor(par.FramePeriod)
		}
	})
	src.SetDaemon(true)

	// Coded subframes cross the bus from PE0 to PE1.
	coded := arch.NewLink[int](bus, "coded", pe0, pe1, par.SubframeLen, par.ISRTime)

	enc := pe0.OS().TaskCreate("encoder", core.Aperiodic, 0, 0, par.PrioEnc)
	k.Spawn("encoder", func(p *sim.Proc) {
		pe0.OS().TaskActivate(p, enc)
		for i := 0; i < par.Frames; i++ {
			frameSem.Acquire(p)
			for s := 0; s < par.Subframes; s++ {
				pe0.OS().TimeWait(p, par.EncSubTime)
				coded.Send(p, i*par.Subframes+s)
			}
		}
		pe0.OS().TaskTerminate(p)
	})

	dec := pe1.OS().TaskCreate("decoder", core.Aperiodic, 0, 0, par.PrioDec)
	k.Spawn("decoder", func(p *sim.Proc) {
		pe1.OS().TaskActivate(p, dec)
		for i := 0; i < par.Frames; i++ {
			for s := 0; s < par.Subframes; s++ {
				_ = coded.Recv(p)
				pe1.OS().TimeWait(p, par.DecSubTime)
			}
			rec.Marker(p.Now(), "frame-out", "decoder", int64(i))
		}
		pe1.OS().TaskTerminate(p)
	})

	pe0.OS().Start(nil)
	pe1.OS().Start(nil)
	start := time.Now()
	err := k.Run()
	for _, o := range []*core.OS{pe0.OS(), pe1.OS()} {
		if d := o.Diagnosis(); err == nil && d != nil {
			err = d // runtime diagnosis outranks a silently wrong result
		}
	}
	res := finish("multi-pe", par.Params, rec, time.Since(start), k.Now(),
		pe0.OS().StatsSnapshot().ContextSwitches+pe1.OS().StatsSnapshot().ContextSwitches)
	return res, rec, err
}
