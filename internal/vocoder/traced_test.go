package vocoder

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// traced is one run of a Table-1 model built as RunSpec or RunArch builds
// it, but with a full trace: the specification model's execution
// segments, or the scheduler's events of the architecture model.
type traced struct {
	res   Results
	rec   *trace.Recorder
	steps uint64 // the kernel's process activations (sim.Kernel.Steps)
}

// tracedSpec runs the specification model as RunSpec does, recording the
// behaviors' execution segments besides the frame markers.
func tracedSpec(t testing.TB, par Params) traced {
	t.Helper()
	k := sim.NewKernel()
	defer k.Shutdown()
	rec := trace.New("spec")
	refine.RunUnscheduled(k, rec, build(arch.NewHWPE(k, "DSP"), rec, par, nil))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return traced{finish("unscheduled", par, rec, 0, k.Now(), 0), rec, k.Steps}
}

// tracedArch runs the architecture model as RunArch does, with the
// recorder attached to the RTOS instance.
func tracedArch(t testing.TB, par Params, tm core.TimeModel) traced {
	t.Helper()
	k := sim.NewKernel()
	defer k.Shutdown()
	pe := archPE(k, par, core.PriorityPolicy{}, tm)
	rec := trace.New("arch")
	rec.Attach(pe.OS())
	rt, err := personality.New(personality.Generic, pe.OS())
	if err != nil {
		t.Fatal(err)
	}
	refine.RunArchitecture(k, pe.OS(), rec, build(pe, rec, par, rt), archMapping(par))
	pe.OS().Start(nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d := pe.OS().Diagnosis(); d != nil {
		t.Fatal(d)
	}
	res := finish("architecture", par, rec, 0, k.Now(), pe.OS().StatsSnapshot().ContextSwitches)
	return traced{res, rec, k.Steps}
}

// sameResults reports whether two runs agree on every simulated metric;
// host wall time is the only field allowed to differ.
func sameResults(a, b Results) bool {
	a.Wall, b.Wall = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestRunnersMatchTracedBuild: RunSpec and RunArch record only the frame
// markers, and their Results equal those of the same model built with a
// full trace, for both time models and at both the test and the Table-1
// size.
func TestRunnersMatchTracedBuild(t *testing.T) {
	markersOnly := func(name string, rec *trace.Recorder, par Params) {
		t.Helper()
		if rec.Len() != 2*par.Frames {
			t.Errorf("%s: recorder holds %d records, want %d frame markers", name, rec.Len(), 2*par.Frames)
		}
		rec.Each(func(r trace.Record) {
			if r.Kind != trace.KindMarker {
				t.Errorf("%s: recorder holds a %v record: %v", name, r.Kind, r)
			}
		})
	}
	for _, par := range []Params{Small(), Default()} {
		res, rec, err := RunSpec(par)
		if err != nil {
			t.Fatal(err)
		}
		want := tracedSpec(t, par)
		if !sameResults(res, want.res) {
			t.Errorf("%d frames: RunSpec results\n%+v\ndiffer from the traced build's\n%+v", par.Frames, res, want.res)
		}
		markersOnly("RunSpec", rec, par)

		for _, tm := range []core.TimeModel{core.TimeModelCoarse, core.TimeModelSegmented} {
			res, rec, err := RunArch(par, core.PriorityPolicy{}, tm)
			if err != nil {
				t.Fatal(err)
			}
			want := tracedArch(t, par, tm)
			if !sameResults(res, want.res) {
				t.Errorf("%d frames, time model %v: RunArch results\n%+v\ndiffer from the traced build's\n%+v",
					par.Frames, tm, res, want.res)
			}
			if want.res.ContextSwitches == 0 || len(want.res.Delays) != par.Frames {
				t.Errorf("%d frames, time model %v: traced build has %d switches and %d delays",
					par.Frames, tm, want.res.ContextSwitches, len(want.res.Delays))
			}
			markersOnly("RunArch", rec, par)
		}
	}
}
