package simcheck

import (
	"bytes"
	"fmt"
	"testing"
)

// TestEngineEquivalence pins the central correctness claim of the
// run-to-completion engine: for every (scenario, policy, time model,
// personality) point of the uniprocessor matrix, a run on internal/rtc
// produces a trace byte-identical to the goroutine kernel — every state
// transition, dispatch, IRQ record, statistic, end time and per-task
// outcome — and the same diagnosis verdict. Any divergence fails with
// the first differing trace line.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix is slow; skipped with -short")
	}
	for seed := int64(1); seed <= 25; seed++ {
		s := Generate(seed)
		for _, cfg := range Matrix(s) {
			if cfg.CPUs > 1 {
				continue // the rtc engine models one CPU
			}
			goroutineRun := Run(s, cfg)

			rtcCfg := cfg
			rtcCfg.Engine = "rtc"
			rtcRun := Run(s, rtcCfg)

			if (rtcRun.Err == nil) != (goroutineRun.Err == nil) {
				t.Errorf("seed %d %v: err mismatch: rtc=%v goroutine=%v",
					seed, cfg, rtcRun.Err, goroutineRun.Err)
				continue
			}
			if (rtcRun.Diag == nil) != (goroutineRun.Diag == nil) {
				t.Errorf("seed %d %v: diagnosis mismatch: rtc=%v goroutine=%v",
					seed, cfg, rtcRun.Diag, goroutineRun.Diag)
			}
			if !bytes.Equal(rtcRun.Trace, goroutineRun.Trace) {
				t.Errorf("seed %d %v: rtc engine diverges from goroutine kernel\n%s",
					seed, cfg, firstTraceDiff(rtcRun.Trace, goroutineRun.Trace))
			}
		}
	}
}

// firstTraceDiff renders the first line where two traces differ.
func firstTraceDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) || i < len(bl); i++ {
		var la, lb []byte
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if !bytes.Equal(la, lb) {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, la, lb)
		}
	}
	return "traces equal?"
}
