package taskset

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/telemetry"
)

// TestSMPGolden pins the telemetry event stream of TestRunSMPTelemetry's
// set: the sha256 over the canonical lines of every event a bus attached
// to the global scheduler receives, its lifecycle events (state, release,
// block/unblock, readyq) included. TestSMPProjection pins the dispatch,
// vacate and preempt part alone.
func TestSMPGolden(t *testing.T) {
	const (
		wantEvents = 134
		wantSum    = "f39a283de436a20aceb889343d11cf49fd2d6de62fbb9ddcf55b66ab95faf595"
	)
	s, err := Parse([]byte(`{"policy":"g-fp","cpus":2,"horizonMs":5,"tasks":[
		{"name":"a","periodUs":1000,"wcetUs":900,"prio":1},
		{"name":"b","periodUs":1000,"wcetUs":900,"prio":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var c telemetry.Collector
	if _, err := Run(s, telemetry.NewBus(&c)); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range c.Events {
		h.Write([]byte(e.String() + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(c.Events) != wantEvents || got != wantSum {
		t.Errorf("%d events, sha256 %s; want %d, %s", len(c.Events), got, wantEvents, wantSum)
	}
}
