package simcheck

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestCheckpointEquivalence is the dedicated checkpoint-equivalence
// suite: for a corpus of generated scenarios, snapshot the rtc engine at
// 25/50/75% of the horizon on every uniprocessor config of the matrix and
// require the restored run byte-identical (trace, stats, task outcomes)
// to the uninterrupted run.
func TestCheckpointEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s := Generate(seed)
		for _, cfg := range Matrix(s) {
			if cfg.CPUs != 1 {
				continue
			}
			base := cfg
			base.Engine = "rtc"
			want := safeRun(s, base)
			for _, num := range []sim.Time{1, 2, 3} {
				ck := base
				ck.CheckpointAt = s.Horizon() * num / 4
				if ck.CheckpointAt == 0 {
					ck.CheckpointAt = 1
				}
				got := safeRun(s, ck)
				if (got.Err == nil) != (want.Err == nil) {
					t.Errorf("seed %d %s: err %v, uninterrupted err %v", seed, ck, got.Err, want.Err)
					continue
				}
				if !bytes.Equal(got.Trace, want.Trace) {
					t.Errorf("seed %d %s: restored trace diverges from uninterrupted run (%d vs %d bytes)",
						seed, ck, len(got.Trace), len(want.Trace))
				}
			}
		}
	}
}

// TestCheckpointInstantDeterministic pins the oracle's snapshot-point
// derivation: same seed and config always map to the same instant,
// inside (0, horizon].
func TestCheckpointInstantDeterministic(t *testing.T) {
	cfg := Config{Policy: "priority", TimeModel: "coarse", CPUs: 1}
	h := 10 * sim.Millisecond
	a := CheckpointInstant(42, cfg, h)
	b := CheckpointInstant(42, cfg, h)
	if a != b {
		t.Fatalf("CheckpointInstant not deterministic: %v vs %v", a, b)
	}
	if a < 1 || a > h {
		t.Fatalf("CheckpointInstant %v outside (0, %v]", a, h)
	}
	other := CheckpointInstant(43, cfg, h)
	cfg2 := cfg
	cfg2.Policy = "edf"
	if a == other && a == CheckpointInstant(42, cfg2, h) {
		t.Fatalf("CheckpointInstant ignores seed and config")
	}
}

// TestCheckpointRejectsSMP: only the rtc engine checkpoints. The SMP
// model and the goroutine kernel must say so rather than silently ignore
// the axis.
func TestCheckpointRejectsSMP(t *testing.T) {
	s := Generate(7)
	for _, cfg := range []Config{
		{Policy: "g-fp", TimeModel: "coarse", CPUs: 2},
		{Policy: "priority", TimeModel: "coarse", CPUs: 1},
		{Policy: "priority", TimeModel: "coarse", CPUs: 1, Engine: "goroutine"},
	} {
		cfg.CheckpointAt = sim.Millisecond
		if res := Run(s, cfg); res.Err == nil {
			t.Errorf("CheckpointAt accepted under %s", cfg)
		}
	}
}
