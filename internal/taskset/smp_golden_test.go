package taskset

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
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
		wantSum    = "8187adbb25f8e7749e3d24bc929a464e59e8fb0d9e8edaf314e325481b513b46"
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

// TestSMPEventSlots checks the CPU stamp of the lifecycle events in
// TestSMPGolden's stream: a state, block, unblock or release event
// carries the slot its task holds at that instant, 0 when it holds none.
// The running-state event of a dispatch comes just before the dispatch
// event itself and carries the slot being taken. A ready-queue event
// carries the slot of the task whose transition changed the queue: a
// task entering it (the state event just before), or one leaving it for
// a CPU (the Ready → Running event just after).
func TestSMPEventSlots(t *testing.T) {
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
	held := map[string]int{} // task -> slot + 1 (0: none)
	// taken returns the slot of task's next dispatch, -1 if none follows i.
	taken := func(i int, task string) int {
		for _, d := range c.Events[i+1:] {
			if d.Kind == telemetry.KindDispatch && d.Task == task {
				return d.CPU
			}
		}
		return -1
	}
	onCPU1, queued, readyLen := 0, "", int64(0)
	for i, e := range c.Events {
		want := max(held[e.Task]-1, 0)
		switch e.Kind {
		case telemetry.KindDispatch:
			if e.Other != "" {
				held[e.Other] = 0
			}
			if e.Task != "" {
				held[e.Task] = e.CPU + 1
			}
			continue
		case telemetry.KindState:
			if e.To == core.TaskReady {
				queued = e.Task
			}
			if e.To == core.TaskRunning && e.From == core.TaskReady {
				want = taken(i, e.Task)
			}
		case telemetry.KindReadyLen:
			if e.Arg > readyLen {
				want = max(held[queued]-1, 0)
			} else if n := c.Events[i+1]; n.Kind == telemetry.KindState && n.From == core.TaskReady && n.To == core.TaskRunning {
				want = taken(i, n.Task)
			} else {
				t.Errorf("event %d %q: queue shrank with no dispatch after it", i, e.String())
			}
			readyLen = e.Arg
		case telemetry.KindBlock, telemetry.KindUnblock, telemetry.KindRelease:
		default:
			continue
		}
		if e.CPU != want {
			t.Errorf("event %d %q: cpu%d, want cpu%d", i, e.String(), e.CPU, want)
		}
		if e.CPU == 1 {
			onCPU1++
		}
	}
	if onCPU1 == 0 {
		t.Error("no lifecycle event on cpu1: the set no longer exercises the second CPU")
	}
}
