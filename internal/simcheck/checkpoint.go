package simcheck

import (
	"fmt"
	"hash/fnv"

	"repro/internal/rtc"
	"repro/internal/sim"
)

// runRTCCheckpointed runs the scenario on the rtc engine through a full
// snapshot/restore cycle: advance a session to CheckpointAt, serialize
// its complete state, rebuild a *fresh* session from the checkpoint
// bytes alone, and run that to the horizon. The assembled RunResult must
// be byte-identical to the uninterrupted run — any state the codec
// drops or distorts shows up as a trace or outcome diff in the
// checkpoint oracle.
func runRTCCheckpointed(s *Scenario, cfg Config) *RunResult {
	w := BuildRTCWorkload(s, cfg)
	ses, err := rtc.NewSession(w)
	if err != nil {
		return assemble(cfg, &rtc.Result{Err: err})
	}
	if err := ses.RunUntil(cfg.CheckpointAt); err != nil {
		// The run failed before the checkpoint instant; the uninterrupted
		// run fails identically, so finish and let the oracle compare.
		return assemble(cfg, ses.Finish())
	}
	cp, err := ses.Snapshot()
	if err != nil {
		return assemble(cfg, &rtc.Result{
			Err: fmt.Errorf("checkpoint: snapshot at %v: %w", cfg.CheckpointAt, err)})
	}
	restored, err := rtc.Restore(w, cp)
	if err != nil {
		return assemble(cfg, &rtc.Result{Err: fmt.Errorf("checkpoint: %w", err)})
	}
	restored.RunUntil(w.Horizon)
	return assemble(cfg, restored.Finish())
}

// CheckpointInstant derives a deterministic pseudo-random snapshot
// instant in [1, horizon] from the scenario seed and the config, so
// every fuzz seed exercises restore at a different point of a run
// without adding a source of nondeterminism to the soak.
func CheckpointInstant(seed int64, cfg Config, horizon sim.Time) sim.Time {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, cfg)
	x := h.Sum64()
	// splitmix64 finalizer: spread the fnv hash over the full 64 bits.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if horizon <= 1 {
		return 1
	}
	return 1 + sim.Time(x%uint64(horizon))
}
