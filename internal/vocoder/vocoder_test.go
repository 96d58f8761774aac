package vocoder

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// expected per-frame compute of the Small() configuration.
func smallTimes() (encFrame, decFrame sim.Time) {
	p := Small()
	return sim.Time(p.Subframes) * p.EncSubTime, sim.Time(p.Subframes) * p.DecSubTime
}

func TestSpecModel(t *testing.T) {
	par := Small()
	res, _, err := RunSpec(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delays) != par.Frames {
		t.Fatalf("transcoded %d frames, want %d", len(res.Delays), par.Frames)
	}
	// Subframe pipelining: decoding overlaps encoding, so the end-to-end
	// delay is encode(frame) + decode(one subframe) + ISR time.
	encF, _ := smallTimes()
	want := encF + par.DecSubTime + par.ISRTime
	if res.TranscodingDelay < want-100 || res.TranscodingDelay > want+2000 {
		t.Errorf("spec transcoding delay = %v, want ≈%v", res.TranscodingDelay, want)
	}
	if res.ContextSwitches != 0 {
		t.Errorf("spec context switches = %d, want 0", res.ContextSwitches)
	}
	// Encoder and decoder genuinely overlap in the unscheduled model. The
	// overlap is read from the execution segments of a traced build;
	// RunSpec records only the frame markers.
	rec := tracedSpec(t, par).rec
	checkBusy(t, rec, par)
	if ov := rec.Overlap("encoder", "decoder"); ov == 0 {
		t.Error("no encoder/decoder overlap in unscheduled model")
	}
}

// checkBusy fails unless a full trace holds the encoder's and the
// decoder's whole compute, so that an overlap read from it means
// something.
func checkBusy(t *testing.T, rec *trace.Recorder, par Params) {
	t.Helper()
	frames, sub := sim.Time(par.Frames), sim.Time(par.Subframes)
	encF, decF := sub*par.EncSubTime, sub*par.DecSubTime
	if got := rec.BusyTime("encoder"); got < frames*encF {
		t.Errorf("trace holds %v of encoder execution, want ≥ %v", got, frames*encF)
	}
	if got := rec.BusyTime("decoder"); got < frames*decF {
		t.Errorf("trace holds %v of decoder execution, want ≥ %v", got, frames*decF)
	}
}

func TestArchModel(t *testing.T) {
	par := Small()
	res, _, err := RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delays) != par.Frames {
		t.Fatalf("transcoded %d frames, want %d", len(res.Delays), par.Frames)
	}
	encF, decF := smallTimes()
	want := encF + decF + par.ISRTime // fully serialized path
	if res.TranscodingDelay < want-100 || res.TranscodingDelay > want+5000 {
		t.Errorf("arch transcoding delay = %v, want ≈%v", res.TranscodingDelay, want)
	}
	// Two context switches per frame (encoder -> decoder -> encoder), as
	// in the paper's ≈2×163=327.
	lo, hi := uint64(2*par.Frames-2), uint64(2*par.Frames+3)
	if res.ContextSwitches < lo || res.ContextSwitches > hi {
		t.Errorf("context switches = %d, want ≈%d", res.ContextSwitches, 2*par.Frames)
	}
	// The serialization is read from a build with the recorder attached
	// to the RTOS instance; RunArch records only the frame markers.
	rec := tracedArch(t, par, core.TimeModelCoarse).rec
	checkBusy(t, rec, par)
	if ov := rec.Overlap("encoder", "decoder"); ov != 0 {
		t.Errorf("encoder/decoder overlap = %v, want 0 (serialized)", ov)
	}
}

func TestImplModel(t *testing.T) {
	par := Small()
	res, _, err := RunImpl(par, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delays) != par.Frames {
		t.Fatalf("transcoded %d frames, want %d", len(res.Delays), par.Frames)
	}
	if res.Instructions == 0 || res.KernelCycles == 0 {
		t.Error("implementation model reports no instructions/cycles")
	}
	// The implementation's transcoding delay tracks the architecture
	// model within ~15% (Table 1: 12.5 ms arch vs 11.7 ms impl).
	archRes, _, err := RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.TranscodingDelay) / float64(archRes.TranscodingDelay)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("impl/arch delay ratio = %.3f (impl %v, arch %v), want within 15%%",
			ratio, res.TranscodingDelay, archRes.TranscodingDelay)
	}
	// Context switches match the architecture model closely (paper: 326
	// vs 327).
	diff := int64(res.ContextSwitches) - int64(archRes.ContextSwitches)
	if diff < -4 || diff > 4 {
		t.Errorf("impl context switches = %d vs arch %d, want within ±4",
			res.ContextSwitches, archRes.ContextSwitches)
	}
}

func TestTable1Ordering(t *testing.T) {
	// The qualitative Table 1 relations on one small run:
	// transcoding delay: unscheduled < architecture;
	// context switches: 0 / ≈2 per frame / ≈2 per frame.
	par := Small()
	spec, _, err := RunSpec(par)
	if err != nil {
		t.Fatal(err)
	}
	arch, _, err := RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	impl, _, err := RunImpl(par, false)
	if err != nil {
		t.Fatal(err)
	}
	if !(spec.TranscodingDelay < arch.TranscodingDelay) {
		t.Errorf("delay ordering violated: spec %v !< arch %v",
			spec.TranscodingDelay, arch.TranscodingDelay)
	}
	if spec.ContextSwitches != 0 {
		t.Errorf("spec switches = %d, want 0", spec.ContextSwitches)
	}
	if arch.ContextSwitches == 0 || impl.ContextSwitches == 0 {
		t.Errorf("arch/impl switches = %d/%d, want > 0",
			arch.ContextSwitches, impl.ContextSwitches)
	}
	// The ISS interprets every instruction: it must retire far more work
	// than the abstract models simulate events.
	if impl.Instructions < 10000 {
		t.Errorf("impl instructions = %d, implausibly few", impl.Instructions)
	}
}

func TestImplSkipIdleEquivalence(t *testing.T) {
	par := Small()
	slow, _, err := RunImpl(par, false)
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := RunImpl(par, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.Delays) != len(fast.Delays) {
		t.Fatalf("frame counts differ: %d vs %d", len(slow.Delays), len(fast.Delays))
	}
	// Functional metrics agree; idle interpretation only adds instructions.
	d := slow.TranscodingDelay - fast.TranscodingDelay
	if d < -2000 || d > 2000 {
		t.Errorf("delays differ: %v vs %v", slow.TranscodingDelay, fast.TranscodingDelay)
	}
	if slow.Instructions <= fast.Instructions {
		t.Errorf("interpret-idle insts %d not > skip-idle %d", slow.Instructions, fast.Instructions)
	}
}

func TestArchSegmentedTimeModel(t *testing.T) {
	// The vocoder has no cross-priority interrupt preemption (the decoder
	// only runs when the encoder blocks), so the segmented model changes
	// the transcoding delay only marginally.
	par := Small()
	coarse, _, err := RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := RunArch(par, core.PriorityPolicy{}, core.TimeModelSegmented)
	if err != nil {
		t.Fatal(err)
	}
	diff := coarse.TranscodingDelay - seg.TranscodingDelay
	if diff < -5000 || diff > 5000 {
		t.Errorf("coarse %v vs segmented %v differ unexpectedly",
			coarse.TranscodingDelay, seg.TranscodingDelay)
	}
}

func TestContextSwitchOverheadGrowsDelay(t *testing.T) {
	par := Small()
	free, _, err := RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	par.ContextSwitchOv = 5 * sim.Microsecond
	costed, _, err := RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	if costed.TranscodingDelay <= free.TranscodingDelay {
		t.Errorf("delay with switch cost (%v) not above baseline (%v)",
			costed.TranscodingDelay, free.TranscodingDelay)
	}
}

func TestFirmwareLines(t *testing.T) {
	if n := FirmwareLines(); n < 40 {
		t.Errorf("firmware lines = %d, implausibly few", n)
	}
}

func TestDefaultParamsCalibration(t *testing.T) {
	p := Default()
	// Subframe times must divide exactly into 17ns × 4-cycle loop
	// iterations so the implementation model hits its budget precisely.
	if p.EncSubTime%(17*4) != 0 || p.DecSubTime%(17*4) != 0 {
		t.Errorf("subframe times %v/%v not divisible by 68ns", p.EncSubTime, p.DecSubTime)
	}
	// ~51% utilization.
	frame := sim.Time(p.Subframes) * (p.EncSubTime + p.DecSubTime)
	u := float64(frame) / float64(p.FramePeriod)
	if u < 0.45 || u > 0.60 {
		t.Errorf("utilization = %.2f, want ≈0.51", u)
	}
}
