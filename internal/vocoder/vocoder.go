// Package vocoder implements the paper's evaluation application: a voice
// codec for mobile phones (the GSM vocoder of Table 1) with one encoding
// and one decoding task running in software, operated in back-to-back
// transcoding mode. The speech DSP math is replaced by calibrated compute
// (see DESIGN.md's substitution table) — Table 1's metrics depend on task
// structure, frame timing and scheduling, not on the arithmetic.
//
// The codec follows the GSM EFR frame structure: a 160-sample speech
// frame arrives every 20 ms and is processed in four subframes. The
// decoder consumes coded subframes as they are produced, so in the
// unscheduled specification model decoding overlaps the encoding of
// subsequent subframes, while the serialized architecture and
// implementation models stretch the transcoding path — reproducing the
// paper's unscheduled < implementation ≈ architecture delay ordering.
//
// Three models are provided:
//
//   - RunSpec: unscheduled specification model (paper Figure 2(a)),
//   - RunArch: RTOS-model-based architecture model (Figure 2(b)),
//   - RunImpl: implementation model — assembly on the ISS under the small
//     custom kernel (Figure 2(c)).
//
// The recorder each of these returns holds the frame markers the Results
// come from: one frame-in and one frame-out marker per frame, nothing
// else. Recording the models' execution segments or scheduler events
// would cost a Table-1 run several times its marker count in records no
// Result reads, so the runners do not; a caller who wants the scheduler's
// event stream passes a telemetry bus, which RunArch attaches to the RTOS
// instance and which also receives every marker. RunMultiPE is the
// exception: its recorder is attached to both PEs' RTOS instances and
// holds their full trace as well.
package vocoder

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Params describes the vocoder workload.
type Params struct {
	Frames          int      // number of speech frames to transcode
	FramePeriod     sim.Time // frame arrival period (20 ms)
	Subframes       int      // subframes per frame (EFR: 4)
	EncSubTime      sim.Time // encoder compute per subframe
	DecSubTime      sim.Time // decoder compute per subframe
	ISRTime         sim.Time // frame-interrupt service time
	PrioEnc         int      // encoder task priority
	PrioDec         int      // decoder task priority
	ContextSwitchOv sim.Time // modeled context-switch cost in the arch model
}

// Default returns the Table 1 configuration: 163 frames (the paper's
// architecture model logs 327 context switches ≈ 2 per frame over 163
// frames), 20 ms frames, four subframes, and compute times calibrated so
// that encoder+decoder utilize ~51% of the processor — and so that the
// subframe times divide exactly into cycles of the implementation model's
// 17 ns clock (1487500 = 68·21875, 1062500 = 68·15625).
func Default() Params {
	return Params{
		Frames:      163,
		FramePeriod: 20 * sim.Millisecond,
		Subframes:   4,
		EncSubTime:  1487500, // 1.4875 ms → 5.95 ms per frame
		DecSubTime:  1062500, // 1.0625 ms → 4.25 ms per frame
		ISRTime:     2 * sim.Microsecond,
		PrioEnc:     1,
		PrioDec:     2,
	}
}

// Small returns a reduced configuration for unit tests: same structure,
// two orders of magnitude less compute.
func Small() Params {
	p := Default()
	p.Frames = 8
	p.FramePeriod = 200 * sim.Microsecond
	p.EncSubTime = 13600 // 68·200: keeps the exact cycle divisibility
	p.DecSubTime = 10200 // 68·150
	p.ISRTime = 500
	return p
}

// Results holds the Table 1 metrics for one model run.
type Results struct {
	Model            string
	Frames           int
	SimEnd           sim.Time      // simulated time at completion
	Wall             time.Duration // host execution time (Table 1 row 2)
	ContextSwitches  uint64        // Table 1 row 3
	TranscodingDelay sim.Time      // average frame-in → frame-out (row 4)
	Delays           []sim.Time    // per-frame transcoding delays
	Instructions     uint64        // retired instructions (implementation model)
	KernelCycles     uint64        // total CPU cycles (implementation model)
}

func (r Results) String() string {
	return fmt.Sprintf("%-12s frames=%d simEnd=%v wall=%v ctxSwitches=%d transcodingDelay=%v",
		r.Model, r.Frames, r.SimEnd, r.Wall, r.ContextSwitches, r.TranscodingDelay)
}

// specQueue adapts a factory-built queue to the personality.Queue shape,
// so the behavior tree builds identically for the specification model
// (no RTOS, no personality) and every RTOS personality.
type specQueue struct{ q *channel.Queue[int64] }

func (w specQueue) Send(p *sim.Proc, v int64) { w.q.Send(p, v) }
func (w specQueue) Recv(p *sim.Proc) int64    { return w.q.Recv(p) }

// build constructs the codec's behavior tree, frame interrupt and
// channels on the given PE; shared between the specification and
// architecture models. rt selects the RTOS personality whose native
// channel kinds carry the frame semaphore and the coded-subframe queue;
// nil (the specification model) uses the PE factory's spec-level
// channels, which the personality interface subsumes. mark receives the
// frame-in and frame-out markers.
func build(pe *arch.PE, mark telemetry.Sink, par Params, rt personality.Runtime) *refine.Behavior {
	var frameSem personality.Semaphore
	var coded personality.Queue
	if rt != nil {
		frameSem = rt.NewSemaphore("frame.sem", 0)
		coded = rt.NewQueue("coded", par.Subframes*2)
	} else {
		f := pe.Factory()
		frameSem = channel.NewSemaphore(f, "frame.sem", 0)
		coded = specQueue{q: channel.NewQueue[int64](f, "coded", par.Subframes*2)}
	}

	irq := pe.AttachISR("frame.irq", par.ISRTime, func(p *sim.Proc) {
		frameSem.Release(p)
	})
	// Speech source: one frame every FramePeriod, starting at t=0, via the
	// PE's frame interrupt.
	src := pe.Kernel().Spawn("speech-in", func(p *sim.Proc) {
		for i := 0; i < par.Frames; i++ {
			telemetry.Mark(mark, p.Now(), "frame-in", "speech-in", int64(i))
			irq.Raise(p)
			p.WaitFor(par.FramePeriod)
		}
	})
	src.SetDaemon(true)

	encoder := refine.Leaf("encoder", func(x refine.Exec) {
		p := x.Proc()
		for i := 0; i < par.Frames; i++ {
			frameSem.Acquire(p)
			for s := 0; s < par.Subframes; s++ {
				x.Delay(par.EncSubTime) // LPC/LTP/codebook search share
				coded.Send(p, int64(i*par.Subframes+s))
			}
		}
	})
	decoder := refine.Leaf("decoder", func(x refine.Exec) {
		p := x.Proc()
		for i := 0; i < par.Frames; i++ {
			for s := 0; s < par.Subframes; s++ {
				_ = coded.Recv(p)
				x.Delay(par.DecSubTime) // synthesis filter share
			}
			telemetry.Mark(mark, p.Now(), "frame-out", "decoder", int64(i))
		}
	})
	return refine.Seq("vocoder", refine.Par("codec", encoder, decoder))
}

// finish derives the Results metrics from a completed run's trace.
func finish(model string, par Params, rec *trace.Recorder, wall time.Duration, end sim.Time, cs uint64) Results {
	res := Results{
		Model:           model,
		Frames:          par.Frames,
		SimEnd:          end,
		Wall:            wall,
		ContextSwitches: cs,
		Delays:          rec.Latencies("frame-in", "frame-out"),
	}
	if len(res.Delays) > 0 {
		var sum sim.Time
		for _, d := range res.Delays {
			sum += d
		}
		res.TranscodingDelay = sum / sim.Time(len(res.Delays))
	}
	return res
}

// markerRecorder returns the recorder of a run's frame markers and the
// target the model writes them to: the recorder itself, or one bus over
// it and the given buses.
func markerRecorder(name string, bus []*telemetry.Bus) (*trace.Recorder, telemetry.Sink) {
	rec := trace.New(name)
	return rec, trace.Target(rec, bus)
}

// archPE creates the architecture model's processing element: the RTOS
// model under policy and tm, with the modeled context-switch cost.
func archPE(k *sim.Kernel, par Params, policy core.Policy, tm core.TimeModel) *arch.PE {
	opts := []core.Option{core.WithTimeModel(tm)}
	if par.ContextSwitchOv > 0 {
		opts = append(opts, core.WithContextSwitchCost(par.ContextSwitchOv))
	}
	return arch.NewSWPE(k, "DSP", policy, opts...)
}

// archMapping is the task refinement of the codec: the root behavior
// becomes the PE's main task, encoder and decoder the two RTOS tasks.
func archMapping(par Params) refine.Mapping {
	return refine.Mapping{
		"vocoder": {Priority: 0},
		"encoder": {Priority: par.PrioEnc},
		"decoder": {Priority: par.PrioDec},
	}
}

// RunSpec executes the unscheduled specification model. The returned
// recorder holds the frame markers the Results come from; an optional
// telemetry bus receives the same markers at the same instants.
func RunSpec(par Params, bus ...*telemetry.Bus) (Results, *trace.Recorder, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	rec, mark := markerRecorder("vocoder-spec", bus)
	refine.RunUnscheduled(k, nil, nil, build(arch.NewHWPE(k, "DSP"), mark, par, nil))
	start := time.Now()
	err := k.Run()
	res := finish("unscheduled", par, rec, time.Since(start), k.Now(), 0)
	return res, rec, err
}

// RunArch executes the architecture model: the codec's behaviors refined
// into tasks on the abstract RTOS model under the generic (paper-model)
// personality. The returned recorder holds the frame markers the Results
// come from. An optional telemetry bus is attached to the RTOS instance,
// so it receives the scheduler's event stream, and receives the frame
// markers too.
func RunArch(par Params, policy core.Policy, tm core.TimeModel, bus ...*telemetry.Bus) (Results, *trace.Recorder, error) {
	return RunArchPersonality(par, policy, tm, personality.Generic, bus...)
}

// RunArchPersonality is RunArch with an explicit RTOS personality: the
// codec's frame semaphore and coded-subframe queue take the selected
// kernel's native forms (ITRON direct-handoff semaphore and mailbox,
// OSEK-COM queued messages), while the task structure, priorities and
// compute stay identical — the paper's RTOS-library axis on the
// evaluation application. The recorder and buses are as in RunArch.
func RunArchPersonality(par Params, policy core.Policy, tm core.TimeModel, kind string, bus ...*telemetry.Bus) (Results, *trace.Recorder, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	pe := archPE(k, par, policy, tm)
	rec, mark := markerRecorder("vocoder-arch", bus)
	for _, b := range bus {
		telemetry.Attach(pe.OS(), b)
	}
	rt, err := personality.New(kind, pe.OS())
	if err != nil {
		return Results{}, rec, err
	}
	refine.RunArchitecture(k, pe.OS(), nil, build(pe, mark, par, rt), archMapping(par))
	pe.OS().Start(nil)
	start := time.Now()
	err = k.Run()
	if d := pe.OS().Diagnosis(); err == nil && d != nil {
		// The always-armed runtime diagnosis (deadlock/stall/starvation)
		// outranks a silently wrong result.
		err = d
	}
	res := finish("architecture", par, rec, time.Since(start), k.Now(),
		pe.OS().StatsSnapshot().ContextSwitches)
	return res, rec, err
}
