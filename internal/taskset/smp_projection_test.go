package taskset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// TestSMPProjection pins the global-scheduler part of TestSMPGolden's
// stream: each task dispatched onto a CPU, each CPU slot vacated and each
// preemption, as (time, cpu, task). A dispatch event naming both a
// previous and a next task is a vacate followed by a dispatch. Events the
// projection drops (state changes, releases, ready-queue lengths) may
// come and go without changing it.
func TestSMPProjection(t *testing.T) {
	const (
		wantLines = 22
		wantSum   = "9656ee9599bf4388c5bd52a79b7520eb5e5e4450cb1179dcb72bff0bb1b0a7bc"
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
	var lines []string
	for _, e := range c.Events {
		switch e.Kind {
		case telemetry.KindDispatch:
			if e.Other != "" {
				lines = append(lines, fmt.Sprintf("%v vacate cpu%d %s", e.At, e.CPU, e.Other))
			}
			if e.Task != "" {
				lines = append(lines, fmt.Sprintf("%v dispatch cpu%d %s", e.At, e.CPU, e.Task))
			}
		case telemetry.KindPreempt:
			lines = append(lines, fmt.Sprintf("%v preempt cpu%d %s", e.At, e.CPU, e.Task))
		}
	}
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(lines) != wantLines || got != wantSum {
		t.Errorf("%d lines, sha256 %s; want %d, %s", len(lines), got, wantLines, wantSum)
		for _, l := range lines {
			t.Log(l)
		}
	}
}
