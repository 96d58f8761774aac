package vocoder

import (
	"testing"

	"repro/internal/core"
)

// TestTable1KernelSteps pins the kernel's process activations
// (sim.Kernel.Steps) for the Table-1 pair, built as RunSpec and RunArch
// build them: how the kernel switches between processes may change, how
// often it resumes one may not.
func TestTable1KernelSteps(t *testing.T) {
	par := Default()
	if steps := tracedSpec(t, par).steps; steps != 2614 {
		t.Errorf("spec model: %d steps, want 2614", steps)
	}
	if steps := tracedArch(t, par, core.TimeModelCoarse).steps; steps != 2128 {
		t.Errorf("architecture model: %d steps, want 2128", steps)
	}
}
