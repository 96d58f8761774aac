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
// outcome — the same telemetry stream and the same diagnosis verdict.
// Any divergence fails with the first differing trace line or event.
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
			if len(goroutineRun.Stream) == 0 {
				t.Errorf("seed %d %v: no telemetry stream", seed, cfg)
			}
			for i, e := range goroutineRun.Stream {
				if i >= len(rtcRun.Stream) || rtcRun.Stream[i] != e {
					t.Errorf("seed %d %v: rtc telemetry stream diverges from goroutine kernel at event %d of %d",
						seed, cfg, i, len(goroutineRun.Stream))
					break
				}
			}
			if len(rtcRun.Stream) > len(goroutineRun.Stream) {
				t.Errorf("seed %d %v: rtc telemetry stream has %d events, goroutine kernel %d",
					seed, cfg, len(rtcRun.Stream), len(goroutineRun.Stream))
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
