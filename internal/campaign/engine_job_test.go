package campaign

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestEngineAxisJobMetrics: two dse jobs that differ only in the engine
// axis run their cells on different engines, and both engines feed the
// cell's telemetry capture the same stream, so the jobs' merged metrics
// are equal.
func TestEngineAxisJobMetrics(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 1)
	var metrics []string
	for _, engine := range []string{"goroutine", "rtc"} {
		payload := fmt.Sprintf(`{"base": %s, "axes": [
			{"name": "policy", "values": ["priority", "edf"]},
			{"name": "engine", "values": [%q]}]}`, smpSet("priority", "segmented", 1), engine)
		id, _, err := s.Submit(KindDSE, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, id)
		st, ok := s.Status(id)
		if !ok || st.Error != "" || st.Metrics == nil {
			t.Fatalf("%s job status has no merged metrics: %+v", engine, st)
		}
		b, err := json.Marshal(st.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		metrics = append(metrics, string(b))
	}
	if metrics[0] != metrics[1] {
		t.Errorf("merged metrics differ across engines:\ngoroutine %s\nrtc       %s", metrics[0], metrics[1])
	}
}
