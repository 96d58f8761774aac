package simcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestSMPGolden pins the global-scheduler rows of the matrix byte for
// byte: the sha256 over the canonical trace (SMP events, counters,
// per-task outcomes) of every multi-CPU config Matrix gives the
// channel-free scenarios of seeds 1–200.
func TestSMPGolden(t *testing.T) {
	const (
		wantRuns = 444
		wantSum  = "6e820e3a096c93c12fa266a5236ee35881087218296199cdd619a2973edb90fd"
	)
	h := sha256.New()
	runs := 0
	for seed := int64(1); seed <= 200; seed++ {
		s := Generate(seed)
		for _, cfg := range Matrix(s) {
			if cfg.CPUs <= 1 {
				continue
			}
			res := Run(s, cfg)
			fmt.Fprintf(h, "seed %d %s err=%v\n", seed, cfg, res.Err)
			h.Write(res.Trace)
			runs++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); runs != wantRuns || got != wantSum {
		t.Errorf("%d SMP runs, sha256 %s; want %d, %s", runs, got, wantRuns, wantSum)
	}
}
