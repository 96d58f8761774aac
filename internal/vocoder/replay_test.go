package vocoder

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// TestRunArchReplayDeterminism: two runs of the vocoder architecture
// model with identical parameters must produce byte-identical traces and
// identical simulated metrics (host wall time excluded) — the model-level
// replay contract backing the simcheck determinism oracle. The traces
// come from a build with the recorder attached to the RTOS instance, so
// they hold every scheduler event, not only the frame markers RunArch
// records.
func TestRunArchReplayDeterminism(t *testing.T) {
	for _, tm := range []core.TimeModel{core.TimeModelCoarse, core.TimeModelSegmented} {
		run := func() (Results, []byte) {
			res, _, err := RunArch(Small(), core.PriorityPolicy{}, tm)
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := tracedArch(t, Small(), tm).rec.EventList(&b); err != nil {
				t.Fatal(err)
			}
			return res, b.Bytes()
		}
		r1, t1 := run()
		r2, t2 := run()
		if !bytes.Equal(t1, t2) {
			t.Errorf("time model %v: two runs produced different traces (%d vs %d bytes)",
				tm, len(t1), len(t2))
		}
		if !bytes.Contains(t1, []byte(" dispatch ")) {
			t.Errorf("time model %v: trace holds no dispatch:\n%s", tm, t1)
		}
		if !sameResults(r1, r2) {
			t.Errorf("time model %v: results differ:\n%+v\n%+v", tm, r1, r2)
		}
	}
}
