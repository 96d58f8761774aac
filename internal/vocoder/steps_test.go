package vocoder

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTable1KernelSteps pins the kernel's process activations
// (sim.Kernel.Steps) for the Table-1 pair, built as RunSpec and RunArch
// build them: how the kernel switches between processes may change, how
// often it resumes one may not.
func TestTable1KernelSteps(t *testing.T) {
	par := Default()

	k := sim.NewKernel()
	defer k.Shutdown()
	spec := trace.New("spec")
	root := build(arch.NewHWPE(k, "DSP"), spec, par, nil)
	refine.RunUnscheduled(k, spec, root)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Steps != 2614 {
		t.Errorf("spec model: %d steps, want 2614", k.Steps)
	}

	k2 := sim.NewKernel()
	defer k2.Shutdown()
	pe := arch.NewSWPE(k2, "DSP", core.PriorityPolicy{}, core.WithTimeModel(core.TimeModelCoarse))
	rec := trace.New("arch")
	rec.Attach(pe.OS())
	rt, err := personality.New(personality.Generic, pe.OS())
	if err != nil {
		t.Fatal(err)
	}
	root = build(pe, rec, par, rt)
	refine.RunArchitecture(k2, pe.OS(), rec, root, refine.Mapping{
		"vocoder": {Priority: 0},
		"encoder": {Priority: par.PrioEnc},
		"decoder": {Priority: par.PrioDec},
	})
	pe.OS().Start(nil)
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if k2.Steps != 2128 {
		t.Errorf("architecture model: %d steps, want 2128", k2.Steps)
	}
}
