package vocoder

import (
	"fmt"
	"time"

	"repro/internal/iss"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/ukernel"
)

// firmware is the implementation model's application: encoder and decoder
// tasks in the ISS's assembly dialect, synchronized through kernel
// semaphores (0 = frame arrival from the ISR, 1 = coded subframes from
// encoder to decoder). Each subframe's DSP work is a calibrated busy loop
// of 4 cycles per iteration (addi 1 + cmpi 1 + bne 2); iteration counts
// and the frame count are patched into data memory before start.
const firmware = `
encoder:
	ld r5, nframes
e_frame:
	ldi r0, 0
	trap 4              ; wait for speech frame (ISR semaphore)
	ld r6, subframes
e_sub:
	ld r4, e_iters
e_busy:
	addi r4, -1
	cmpi r4, 0
	bne e_busy
	ldi r0, 1
	trap 5              ; coded subframe -> decoder
	addi r6, -1
	cmpi r6, 0
	bne e_sub
	addi r5, -1
	cmpi r5, 0
	bne e_frame
	trap 0

decoder:
	ld r5, nframes
	ldi r7, 0
d_frame:
	ld r6, subframes
d_sub:
	ldi r0, 1
	trap 4              ; wait for coded subframe
	ld r4, d_iters
d_busy:
	addi r4, -1
	cmpi r4, 0
	bne d_busy
	addi r6, -1
	cmpi r6, 0
	bne d_sub
	mov r0, r7
	trap 6              ; frame decoded: debug marker with frame index
	addi r7, 1
	addi r5, -1
	cmpi r5, 0
	bne d_frame
	trap 0

idle:
	jmp idle

.data
nframes:   .word 0
subframes: .word 0
e_iters:   .word 0
d_iters:   .word 0
`

// busyLoopCycles is the cost of one calibration-loop iteration.
const busyLoopCycles = 4

// FirmwareLines returns the size of the implementation model's assembly
// (for the Table 1 lines-of-code row).
func FirmwareLines() int {
	n := 0
	for _, c := range firmware {
		if c == '\n' {
			n++
		}
	}
	return n
}

// RunImpl executes the implementation model: the vocoder firmware on the
// ISS under the small custom kernel, co-simulated with the speech source
// as an SLDL process. skipIdle selects the idle-skipping co-simulation
// extension (the paper's ISS interprets idle loops, which is the default
// here too).
// An optional telemetry bus receives the frame markers (the ISS kernel
// has no scheduler observer hooks, so only markers are emitted).
func RunImpl(par Params, skipIdle bool, bus ...*telemetry.Bus) (Results, *trace.Recorder, error) {
	prog, err := iss.Assemble(firmware)
	if err != nil {
		return Results{}, nil, fmt.Errorf("vocoder: firmware: %v", err)
	}
	cpu, err := iss.NewCPU(prog, 8192)
	if err != nil {
		return Results{}, nil, err
	}
	kern, err := ukernel.New(cpu, prog, "idle")
	if err != nil {
		return Results{}, nil, err
	}
	m := ukernel.NewMachine(cpu, kern)
	m.SkipIdle = skipIdle

	// Patch workload parameters into data memory.
	patch := func(sym string, v int64) error {
		a, ok := prog.Symbols[sym]
		if !ok {
			return fmt.Errorf("vocoder: firmware lacks symbol %q", sym)
		}
		cpu.Mem[a] = v
		return nil
	}
	encIters := int64(par.EncSubTime / (m.CyclePeriod * busyLoopCycles))
	decIters := int64(par.DecSubTime / (m.CyclePeriod * busyLoopCycles))
	for sym, v := range map[string]int64{
		"nframes":   int64(par.Frames),
		"subframes": int64(par.Subframes),
		"e_iters":   encIters,
		"d_iters":   decIters,
	} {
		if err := patch(sym, v); err != nil {
			return Results{}, nil, err
		}
	}

	semFrame := kern.AddSem(0) // 0: speech frames
	kern.AddSem(0)             // 1: coded subframes
	encEntry, _ := prog.Entry("encoder")
	decEntry, _ := prog.Entry("decoder")
	kern.AddTask("encoder", encEntry, 8192, par.PrioEnc)
	kern.AddTask("decoder", decEntry, 7936, par.PrioDec)
	kern.SetDeviceIRQ(0, func() { kern.SemSignalFromISR(semFrame) })

	rec, mark := markerRecorder("vocoder-impl", bus)
	kern.OnDebug = func(t *ukernel.Task, v int64) {
		telemetry.Mark(mark, m.Now(), "frame-out", "decoder", v)
	}

	k := sim.NewKernel()
	defer k.Shutdown()
	kern.Start()
	m.Spawn(k, "DSP")
	src := k.Spawn("speech-in", func(p *sim.Proc) {
		for i := 0; i < par.Frames; i++ {
			telemetry.Mark(mark, p.Now(), "frame-in", "speech-in", int64(i))
			m.RaiseIRQ(p, 0)
			p.WaitFor(par.FramePeriod)
		}
	})
	src.SetDaemon(true)

	start := time.Now()
	err = k.Run()
	if err == nil && cpu.Err() != nil {
		err = cpu.Err()
	}
	res := finish("implementation", par, rec, time.Since(start), k.Now(),
		kern.StatsSnapshot().ContextSwitches)
	res.Instructions = cpu.Insts
	res.KernelCycles = cpu.Cycles
	return res, rec, err
}
