// Package models contains the concrete system models of the paper's
// examples and experiments, shared by tests, examples, benchmarks and the
// experiment harness: the single-PE design of Figure 3 (whose simulation
// traces are Figure 8) and helpers to run it as an unscheduled
// specification model or as an RTOS-based architecture model.
package models

import (
	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Figure3Params parameterizes the paper's Figure 3 example: behavior B1
// followed by the parallel composition of B2 and B3, channels c1/c2
// between them, and a bus driver whose ISR signals a semaphore when the
// external interrupt delivers data.
//
// Timeline (paper Figure 8): B2 = d5, send c1, d6, d7, recv c2, d8.
// B3 = d1, recv c1, d2, wait external data, d3, send c2, d4.
type Figure3Params struct {
	B1                             sim.Time // duration of behavior B1
	D1, D2, D3, D4, D5, D6, D7, D8 sim.Time // delay annotations
	IRQAt                          sim.Time // absolute time of the external interrupt (t4)
	ISRTime                        sim.Time // ISR service time
	PrioPE, PrioB2, PrioB3         int      // task priorities for the architecture model

	// D6Chunks splits B2's d6 delay annotation into that many equal
	// time_wait calls (default 1). Finer annotation granularity lets the
	// coarse time model serve the interrupt earlier — the knob of the
	// granularity ablation (DESIGN.md experiment F8-PREC, paper Section
	// 4.3: "the accuracy of preemption results is limited by the
	// granularity of task delay models").
	D6Chunks int
}

// DefaultFigure3 returns parameters that reproduce the paper's qualitative
// trace: the interrupt arrives while task B2 executes its d6 segment, so
// the coarse time model delays the switch to B3 until the end of d6
// (t4 → t4').
func DefaultFigure3() Figure3Params {
	return Figure3Params{
		B1: 100,
		D1: 50, D2: 80, D3: 60, D4: 40,
		D5: 40, D6: 120, D7: 70, D8: 50,
		IRQAt:   280,
		ISRTime: 0,
		PrioPE:  0,
		PrioB2:  2,
		PrioB3:  1, // B3 has the higher priority (paper Section 4.3)
	}
}

// Figure3 is an instantiated Figure 3 model bound to one PE.
type Figure3 struct {
	Params Figure3Params
	Root   *refine.Behavior
	Rec    *trace.Recorder
	IRQ    *arch.IRQ
	Sem    *channel.Semaphore
}

// BuildFigure3 constructs the behavior tree, channels, ISR and external
// stimulus on the given PE. The same builder serves both models; the PE's
// factory decides the synchronization layer (the paper's synchronization
// refinement).
func BuildFigure3(pe *arch.PE, rec *trace.Recorder, par Figure3Params) *Figure3 {
	f := pe.Factory()
	c1 := channel.NewQueue[int](f, "c1", 1)
	c2 := channel.NewQueue[int](f, "c2", 1)
	sem := channel.NewSemaphore(f, "sem", 0)

	m := &Figure3{Params: par, Rec: rec, Sem: sem}

	// Bus-driver receive path: the external interrupt's ISR releases the
	// semaphore the driver code in B3 blocks on (paper Figure 3).
	m.IRQ = pe.AttachISR("irq0", par.ISRTime, func(p *sim.Proc) {
		sem.Release(p)
	})
	stim := pe.Kernel().Spawn("external", func(p *sim.Proc) {
		p.WaitFor(par.IRQAt)
		m.IRQ.Raise(p)
	})
	stim.SetDaemon(true)

	b1 := refine.Leaf("B1", func(x refine.Exec) {
		x.Delay(par.B1)
		x.Marker("B1-done", 0)
	})
	b2 := refine.Leaf("B2", func(x refine.Exec) {
		p := x.Proc()
		x.Delay(par.D5)
		// Marker before the send: a send that wakes a higher-priority
		// receiver preempts this task immediately, so a marker placed
		// after the call would record the resume time instead.
		x.Marker("c1-send", 0)
		c1.Send(p, 1)
		chunks := par.D6Chunks
		if chunks < 1 {
			chunks = 1
		}
		per := par.D6 / sim.Time(chunks)
		rem := par.D6 - per*sim.Time(chunks)
		for i := 0; i < chunks; i++ {
			d := per
			if i == chunks-1 {
				d += rem
			}
			x.Delay(d)
		}
		x.Delay(par.D7)
		v := c2.Recv(p)
		x.Marker("c2-recv", int64(v))
		x.Delay(par.D8)
	})
	b3 := refine.Leaf("B3", func(x refine.Exec) {
		p := x.Proc()
		x.Delay(par.D1)
		_ = c1.Recv(p)
		x.Marker("c1-recv", 0)
		x.Delay(par.D2)
		sem.Acquire(p) // wait for data from another PE (bus driver)
		x.Marker("ext-data", 0)
		x.Delay(par.D3)
		x.Marker("c2-send", 0)
		c2.Send(p, 2)
		x.Delay(par.D4)
	})
	m.Root = refine.Seq("PE", b1, refine.Par("B2B3", b2, b3))
	return m
}

// Figure3Unscheduled builds and runs the unscheduled specification model
// (paper Figure 8(a)); it returns the trace.
func Figure3Unscheduled(par Figure3Params) (*trace.Recorder, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	pe := arch.NewHWPE(k, "PE") // no OS: behaviors run truly concurrently
	rec := trace.New("figure3-unscheduled")
	m := BuildFigure3(pe, rec, par)
	refine.RunUnscheduled(k, rec, rec, m.Root)
	return rec, k.Run()
}

// Figure3Architecture builds and runs the RTOS-based architecture model
// under the given policy and time model (paper Figure 8(b)); it returns
// the trace and the OS instance for its statistics. An optional telemetry
// bus is attached to the RTOS instance and receives the markers too.
func Figure3Architecture(par Figure3Params, policy core.Policy, tm core.TimeModel, bus ...*telemetry.Bus) (*trace.Recorder, *core.OS, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	pe := arch.NewSWPE(k, "PE", policy, core.WithTimeModel(tm))
	rec := trace.New("figure3-architecture")
	to := trace.Target(rec, bus)
	telemetry.Attach(pe.OS(), to)
	m := BuildFigure3(pe, rec, par)
	mapping := refine.Mapping{
		"PE": {Priority: par.PrioPE},
		"B2": {Priority: par.PrioB2},
		"B3": {Priority: par.PrioB3},
	}
	refine.RunArchitecture(k, pe.OS(), to, m.Root, mapping)
	pe.OS().Start(nil)
	err := k.Run()
	if d := pe.OS().Diagnosis(); err == nil && d != nil {
		// The always-armed runtime diagnosis (deadlock/stall/starvation)
		// outranks a silently wrong result.
		err = d
	}
	return rec, pe.OS(), err
}
