package sdl

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The checks of the paper's example models, run on the built-in SDL
// files. Expected values are constants read off models/figure3.sdl and
// models/jpeg*.sdl.

// figure3IRQAt is the external interrupt time t4 of figure3.sdl; it lands
// inside task B2's d6 annotation, which the architecture model runs over
// 270..390.
const figure3IRQAt = 280

// figure3Arch runs the built-in Figure 3 architecture model under policy
// and tm, failing the test on error.
func figure3Arch(t *testing.T, m *Model, policy core.Policy, tm core.TimeModel) (*trace.Recorder, *core.OS) {
	t.Helper()
	rec, osi, err := m.RunArchitecture(policy, tm)
	if err != nil {
		t.Fatal(err)
	}
	return rec, osi
}

// checkMarkers requires each label to occur exactly once, at its time.
func checkMarkers(t *testing.T, rec *trace.Recorder, want map[string]sim.Time) {
	t.Helper()
	for label, at := range want {
		if ts := rec.MarkerTimes(label); len(ts) != 1 || ts[0] != at {
			t.Errorf("%s at %v, want [%v]", label, ts, at)
		}
	}
}

// TestFigure8aUnscheduled verifies the specification-model trace of the
// paper's Figure 8(a): B2 and B3 execute truly in parallel (overlapping
// delays), and the event sequence follows the paper's narrative.
func TestFigure8aUnscheduled(t *testing.T) {
	rec, err := mustLoad(t, "figure3").RunUnscheduled()
	if err != nil {
		t.Fatal(err)
	}
	if ov := rec.Overlap("B2", "B3"); ov == 0 {
		t.Error("unscheduled model shows no B2/B3 overlap; expected true parallelism")
	}
	// B1 finishes at 100, then B2/B3 overlap: c1 send at 140 (end of d5),
	// c1 data consumed when B3 reaches the receive at 150, external data
	// at the interrupt time 280, c2 send at 340, end at 390.
	checkMarkers(t, rec, map[string]sim.Time{
		"B1-done": 100, "c1-send": 140, "c1-recv": 150, "ext-data": 280, "c2-send": 340,
	})
	if end := rec.End(); end != 390 {
		t.Errorf("trace ends at %v, want 390", end)
	}
	// No RTOS: zero context switches in the unscheduled model (Table 1).
	if cs := rec.ContextSwitches(); cs != 0 {
		t.Errorf("context switches = %d, want 0", cs)
	}
}

// TestFigure8bArchitectureCoarse verifies the architecture-model trace of
// Figure 8(b) under priority scheduling with the paper's coarse time
// model: tasks interleave (no overlap), and the interrupt at t4=280 takes
// effect only at t4'=390, the end of task B2's d6 time step.
func TestFigure8bArchitectureCoarse(t *testing.T) {
	rec, osi := figure3Arch(t, mustLoad(t, "figure3"), core.PriorityPolicy{}, core.TimeModelCoarse)
	if ov := rec.Overlap("B2", "B3"); ov != 0 {
		t.Errorf("architecture model overlap = %v, want 0 (serialized)", ov)
	}
	// Serialized timeline: B3 (higher priority) runs d1 at 100-150, blocks
	// on c1; B2 runs d5 150-190, sends c1; B3 preempts, d2 190-270, blocks
	// on the driver semaphore; B2 runs d6 270-390; IRQ at 280 readies B3
	// but the switch is delayed to 390 (t4').
	checkMarkers(t, rec, map[string]sim.Time{
		"c1-send": 190, "c1-recv": 190, "ext-data": 390, "c2-send": 450, "c2-recv": 560,
	})
	if end := rec.End(); end != 610 {
		t.Errorf("trace ends at %v, want 610 (serialized schedule)", end)
	}
	st := osi.StatsSnapshot()
	if st.ContextSwitches < 4 {
		t.Errorf("context switches = %d, want ≥ 4", st.ContextSwitches)
	}
	if st.IRQs != 1 {
		t.Errorf("IRQs = %d, want 1", st.IRQs)
	}
	if st.Preemptions == 0 {
		t.Error("no preemptions recorded; the c1 send and the interrupt must preempt B2")
	}
}

// TestFigure8bSegmented verifies the extension time model: the interrupt
// preempts B2 immediately at t4=280, so B3 receives its data 110 time
// units earlier than under the coarse model.
func TestFigure8bSegmented(t *testing.T) {
	rec, _ := figure3Arch(t, mustLoad(t, "figure3"), core.PriorityPolicy{}, core.TimeModelSegmented)
	checkMarkers(t, rec, map[string]sim.Time{"ext-data": 280})
	// Total schedule length is unchanged: the same work is serialized.
	if end := rec.End(); end != 610 {
		t.Errorf("trace ends at %v, want 610", end)
	}
}

// TestFigure3ResponseTimeGap quantifies the paper's accuracy remark: the
// response time of B3 to the external interrupt differs between time
// models by the remainder of B2's d6 annotation.
func TestFigure3ResponseTimeGap(t *testing.T) {
	m := mustLoad(t, "figure3")
	if at := m.IRQs[0].At; at != figure3IRQAt {
		t.Fatalf("irq at %v, want %v", at, figure3IRQAt)
	}
	coarse, _ := figure3Arch(t, m, core.PriorityPolicy{}, core.TimeModelCoarse)
	seg, _ := figure3Arch(t, m, core.PriorityPolicy{}, core.TimeModelSegmented)
	if resp := seg.MarkerTimes("ext-data")[0] - figure3IRQAt; resp != 0 {
		t.Errorf("segmented response = %v, want 0", resp)
	}
	// d6 runs 270..390; IRQ at 280 → 110 remaining.
	if resp := coarse.MarkerTimes("ext-data")[0] - figure3IRQAt; resp != 110 {
		t.Errorf("coarse response = %v, want 110 (remainder of d6)", resp)
	}
}

// TestFigure3FCFS runs the same model under non-preemptive FCFS: B2 and
// B3 never preempt each other; the model still completes with a valid
// serialized schedule.
func TestFigure3FCFS(t *testing.T) {
	rec, _ := figure3Arch(t, mustLoad(t, "figure3"), core.FCFSPolicy{}, core.TimeModelCoarse)
	if ov := rec.Overlap("B2", "B3"); ov != 0 {
		t.Errorf("overlap = %v, want 0", ov)
	}
	if rec.End() <= 390 {
		t.Errorf("end = %v; serialized schedule must exceed the unscheduled 390", rec.End())
	}
}

// figure3EventList runs the architecture model and returns its full event
// list as bytes plus the OS instance.
func figure3EventList(t *testing.T, m *Model, tm core.TimeModel) ([]byte, *core.OS) {
	t.Helper()
	rec, osi := figure3Arch(t, m, core.PriorityPolicy{}, tm)
	var b bytes.Buffer
	if err := rec.EventList(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), osi
}

// TestFigure3ReplayDeterminism: running the same model twice must yield
// byte-identical traces under both time models — the bit-reproducibility
// contract of the simulation kernel, and the baseline the simcheck
// determinism oracle generalizes to random task sets.
func TestFigure3ReplayDeterminism(t *testing.T) {
	m := mustLoad(t, "figure3")
	for _, tm := range []core.TimeModel{core.TimeModelCoarse, core.TimeModelSegmented} {
		a, _ := figure3EventList(t, m, tm)
		b, _ := figure3EventList(t, m, tm)
		if !bytes.Equal(a, b) {
			t.Errorf("time model %v: two runs produced different traces (%d vs %d bytes)",
				tm, len(a), len(b))
		}
		if len(a) == 0 {
			t.Errorf("time model %v: empty trace", tm)
		}
	}
}

// TestFigure3Conservation: busy + idle + overhead time must exactly
// partition the simulated span in the paper's own example, under both
// time models.
func TestFigure3Conservation(t *testing.T) {
	m := mustLoad(t, "figure3")
	for _, tm := range []core.TimeModel{core.TimeModelCoarse, core.TimeModelSegmented} {
		_, osi := figure3EventList(t, m, tm)
		if err := osi.CheckConservation(); err != nil {
			t.Errorf("time model %v: %v", tm, err)
		}
	}
}

// TestCoarsePreemptionPinnedToDelayBoundary is the regression test for
// the paper's t4 -> t4' behavior (Figure 8, Section 4.3): wherever the
// external interrupt lands inside task B2's d6 delay annotation
// (270..390), the coarse model must defer the switch to B3 to the
// segment boundary at 390, while the segmented model serves it at the
// interrupt time itself.
func TestCoarsePreemptionPinnedToDelayBoundary(t *testing.T) {
	m := mustLoad(t, "figure3")
	for _, irqAt := range []sim.Time{271, 280, 350, 389} {
		m.IRQs[0].At = irqAt
		rec, osi := figure3Arch(t, m, core.PriorityPolicy{}, core.TimeModelCoarse)
		if ts := rec.MarkerTimes("ext-data"); len(ts) != 1 || ts[0] != 390 {
			t.Errorf("coarse, irq at %v: ext-data at %v, want [390] (delay boundary)", irqAt, ts)
		}
		if err := osi.CheckConservation(); err != nil {
			t.Errorf("coarse, irq at %v: %v", irqAt, err)
		}

		rec, osi = figure3Arch(t, m, core.PriorityPolicy{}, core.TimeModelSegmented)
		if ts := rec.MarkerTimes("ext-data"); len(ts) != 1 || ts[0] != irqAt {
			t.Errorf("segmented, irq at %v: ext-data at %v, want [%v] (immediate preemption)",
				irqAt, ts, irqAt)
		}
		if err := osi.CheckConservation(); err != nil {
			t.Errorf("segmented, irq at %v: %v", irqAt, err)
		}
	}
}

// The JPEG models' block count and per-block stage delays.
const (
	jpegBlocks = 16
	jpegDCTSW  = 400 * sim.Microsecond
	jpegDCTHW  = 40 * sim.Microsecond
	jpegQuant  = 150 * sim.Microsecond
	jpegHuff   = 250 * sim.Microsecond
)

// jpegRun is one JPEG encoder run: its trace, the CPU's context switches
// and, for the HW/SW partition, the system bus.
type jpegRun struct {
	rec *trace.Recorder
	cs  uint64
	bus *arch.Bus
}

// checkBlocks requires one block-out marker per encoded block.
func (r jpegRun) checkBlocks(t *testing.T, blocks int) {
	t.Helper()
	if n := len(r.rec.MarkerTimes("block-out")); n != blocks {
		t.Fatalf("encoded %d blocks, want %d", n, blocks)
	}
}

// setBlocks sets every stage's outer repeat count, the block count.
func setBlocks(m *Model, blocks int) {
	for i := range m.Behaviors {
		m.Behaviors[i].Stmts[0].Count = blocks
	}
}

func jpegSpec(t *testing.T, blocks int) jpegRun {
	t.Helper()
	m := mustLoad(t, "jpeg")
	setBlocks(m, blocks)
	rec, err := m.RunUnscheduled()
	if err != nil {
		t.Fatal(err)
	}
	return jpegRun{rec: rec}
}

func jpegSW(t *testing.T, blocks int) jpegRun {
	t.Helper()
	m := mustLoad(t, "jpeg")
	setBlocks(m, blocks)
	rec, osi, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	return jpegRun{rec: rec, cs: osi.StatsSnapshot().ContextSwitches}
}

func jpegHWSW(t *testing.T, blocks int) jpegRun {
	t.Helper()
	m := mustLoad(t, "jpeg_hwsw")
	setBlocks(m, blocks)
	rec, oss, buses, err := m.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	return jpegRun{rec: rec, cs: oss["CPU"].StatsSnapshot().ContextSwitches, bus: buses["bus"]}
}

func TestJPEGSpecThroughputBoundedByDCT(t *testing.T) {
	r := jpegSpec(t, jpegBlocks)
	r.checkBlocks(t, jpegBlocks)
	// Pipeline steady state: one block per DCT time, plus the fill of the
	// quant+huff tail.
	wantMin := sim.Time(jpegBlocks) * jpegDCTSW
	wantMax := wantMin + jpegQuant + jpegHuff + 10*sim.Microsecond
	if end := r.rec.End(); end < wantMin || end > wantMax {
		t.Errorf("total = %v, want in [%v, %v]", end, wantMin, wantMax)
	}
	// Stages really overlap in the specification model.
	if ov := r.rec.Overlap("dct", "huff"); ov == 0 {
		t.Error("dct and huff do not overlap in the unscheduled model")
	}
}

func TestJPEGSWSerializes(t *testing.T) {
	r := jpegSW(t, jpegBlocks)
	r.checkBlocks(t, jpegBlocks)
	// Fully serialized: total = blocks × (dct + quant + huff).
	if want := sim.Time(jpegBlocks) * (jpegDCTSW + jpegQuant + jpegHuff); r.rec.End() != want {
		t.Errorf("total = %v, want %v (serialized stages)", r.rec.End(), want)
	}
	for _, pair := range [][2]string{{"dct", "quant"}, {"dct", "huff"}, {"quant", "huff"}} {
		if ov := r.rec.Overlap(pair[0], pair[1]); ov != 0 {
			t.Errorf("%s/%s overlap = %v, want 0", pair[0], pair[1], ov)
		}
	}
	if r.cs != 89 {
		t.Errorf("context switches = %d, want 89", r.cs)
	}
	for stage, per := range map[string]sim.Time{"dct": jpegDCTSW, "quant": jpegQuant, "huff": jpegHuff} {
		if busy := r.rec.BusyTime(stage); busy != jpegBlocks*per {
			t.Errorf("%s busy %v, want %v", stage, busy, jpegBlocks*per)
		}
	}
}

func TestJPEGHWSWSpeedsUp(t *testing.T) {
	sw := jpegSW(t, jpegBlocks)
	hw := jpegHWSW(t, jpegBlocks)
	hw.checkBlocks(t, jpegBlocks)
	// Offloading the DCT must shorten the encode substantially: the CPU's
	// serialized work per block drops from 800 µs to 400 µs + bus traffic.
	if speedup := float64(sw.rec.End()) / float64(hw.rec.End()); speedup < 1.5 {
		t.Errorf("HW/SW speedup = %.2f (sw %v, hw %v), want ≥ 1.5",
			speedup, sw.rec.End(), hw.rec.End())
	}
	if n := hw.bus.Transfers(); n != 2*jpegBlocks {
		t.Errorf("bus transfers = %d, want %d (to and from the accelerator)", n, 2*jpegBlocks)
	}
	if busy := hw.bus.BusyTime(); busy != 268800 {
		t.Errorf("bus busy %v, want 268800ns", busy)
	}
	if end := hw.rec.End(); end != 6543800 {
		t.Errorf("total = %v, want 6543800ns", end)
	}
	if hw.cs != 34 {
		t.Errorf("context switches = %d, want 34", hw.cs)
	}
	if busy := hw.rec.BusyTime("dct"); busy != jpegBlocks*jpegDCTHW {
		t.Errorf("accelerator dct busy %v, want %v", busy, jpegBlocks*jpegDCTHW)
	}
	// The accelerated DCT overlaps the CPU's quant/huff work.
	if ov := hw.rec.Overlap("dct", "huff"); ov == 0 {
		t.Error("accelerator does not overlap software stages")
	}
}

func TestJPEGMappingComparison(t *testing.T) {
	// Design-space shape across the three mappings: the software mapping
	// is the slowest (serialized stages with the slow software DCT); both
	// the unscheduled specification and the HW/SW partition beat it. The
	// partition may even beat the specification because the accelerator's
	// DCT is 10× faster than the software DCT the specification models —
	// exactly the kind of trade-off the flow exists to expose.
	spec, sw, hw := jpegSpec(t, jpegBlocks), jpegSW(t, jpegBlocks), jpegHWSW(t, jpegBlocks)
	if !(spec.rec.End() < sw.rec.End()) {
		t.Errorf("spec %v not faster than software mapping %v", spec.rec.End(), sw.rec.End())
	}
	if !(hw.rec.End() < sw.rec.End()) {
		t.Errorf("hw/sw %v not faster than software mapping %v", hw.rec.End(), sw.rec.End())
	}
	// The CPU-side serialized work per block halves (800 → 400 µs), so
	// the partition should land near half the software mapping's time.
	if ratio := float64(sw.rec.End()) / float64(hw.rec.End()); ratio < 1.7 || ratio > 2.3 {
		t.Errorf("hw/sw speedup = %.2f, want ≈2", ratio)
	}
}

// TestJPEGBlockCount pins the examples/jpeg default size, 256 blocks,
// reached by editing the stages' repeat counts.
func TestJPEGBlockCount(t *testing.T) {
	const blocks = 256
	sw, hw := jpegSW(t, blocks), jpegHWSW(t, blocks)
	sw.checkBlocks(t, blocks)
	hw.checkBlocks(t, blocks)
	if end, cs := sw.rec.End(), sw.cs; end != 204800*sim.Microsecond || cs != 1529 {
		t.Errorf("software: total %v, %d switches; want 204800us, 1529", end, cs)
	}
	if end, cs, n := hw.rec.End(), hw.cs, hw.bus.Transfers(); end != 104559800 || cs != 514 || n != 512 {
		t.Errorf("hw/sw: total %v, %d switches, %d transfers; want 104559800ns, 514, 512", end, cs, n)
	}
}
