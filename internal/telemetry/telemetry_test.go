package telemetry

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// scenario runs a small but hook-complete simulation — a preempting
// high-priority task released by an ISR, a periodic task and a long
// low-priority task — and returns the attached sinks' bus products plus
// the OS for cross-checks.
func scenario(t *testing.T, sinks ...Sink) (*core.OS, sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	os := core.New(k, "PE", core.PriorityPolicy{}, core.WithTimeModel(core.TimeModelSegmented))
	bus := NewBus(sinks...)
	bus.Attach(os)

	e := os.EventNew("data")
	high := os.TaskCreate("high", core.Aperiodic, 0, 0, 1)
	mid := os.TaskCreate("mid", core.Periodic, 100, 20, 2)
	low := os.TaskCreate("low", core.Aperiodic, 0, 0, 3)

	body := func(task *core.Task, fn func(p *sim.Proc)) sim.Func {
		return func(p *sim.Proc) {
			os.TaskActivate(p, task)
			fn(p)
			os.TaskTerminate(p)
		}
	}
	k.Spawn("high", body(high, func(p *sim.Proc) {
		os.EventWait(p, e)
		os.TimeWait(p, 10)
	}))
	k.Spawn("mid", body(mid, func(p *sim.Proc) {
		for c := 0; c < 4; c++ {
			os.TimeWait(p, 20)
			os.TaskEndCycle(p)
		}
	}))
	k.Spawn("low", body(low, func(p *sim.Proc) {
		os.TimeWait(p, 150)
	}))
	k.Spawn("isr", func(p *sim.Proc) {
		p.WaitFor(45)
		os.InterruptEnter(p, "irq0")
		os.EventNotify(p, e)
		os.InterruptReturn(p, "irq0")
	})
	os.Start(nil)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return os, k.Now()
}

func TestAggregatorMatchesStats(t *testing.T) {
	agg := NewAggregator()
	os, end := scenario(t, agg)
	agg.SetEnd(end)
	st := os.StatsSnapshot()
	rep := agg.Report()

	if len(rep.PEs) != 1 {
		t.Fatalf("got %d PEs, want 1", len(rep.PEs))
	}
	pe := rep.PEs[0]
	if pe.PE != "PE" {
		t.Errorf("PE name %q, want PE", pe.PE)
	}
	if pe.Dispatches != st.Dispatches {
		t.Errorf("dispatches %d, stats %d", pe.Dispatches, st.Dispatches)
	}
	if pe.ContextSwitches != st.ContextSwitches {
		t.Errorf("context switches %d, stats %d", pe.ContextSwitches, st.ContextSwitches)
	}
	if pe.Preemptions != st.Preemptions {
		t.Errorf("preemptions %d, stats %d", pe.Preemptions, st.Preemptions)
	}
	if pe.IRQReturns != st.IRQs {
		t.Errorf("IRQ returns %d, stats %d", pe.IRQReturns, st.IRQs)
	}
	if pe.IRQEnters != pe.IRQReturns {
		t.Errorf("IRQ balance %d/%d", pe.IRQEnters, pe.IRQReturns)
	}
	// Occupancy derived from dispatch events must partition the span the
	// same way Stats does: busy (incl. overhead) + idle == span.
	if pe.Busy != st.BusyTime+st.OverheadTime {
		t.Errorf("telemetry busy %v, stats busy+overhead %v", pe.Busy, st.BusyTime+st.OverheadTime)
	}
	if pe.Busy+pe.Idle != pe.Span {
		t.Errorf("busy %v + idle %v != span %v", pe.Busy, pe.Idle, pe.Span)
	}
	if pe.ReadyMax < 1 {
		t.Errorf("ready max %d, want >= 1", pe.ReadyMax)
	}

	tasks := map[string]TaskReport{}
	for _, tr := range pe.Tasks {
		tasks[tr.Task] = tr
	}
	mid := tasks["mid"]
	// 4 TaskEndCycle calls → 4 period releases plus a 5th release whose
	// job is completed immediately by termination (response 0).
	if mid.Jobs != 5 {
		t.Errorf("mid jobs = %d, want 5 (4 cycles + terminating release)", mid.Jobs)
	}
	if mid.RespMin < 0 || mid.RespMax < mid.RespMin || mid.RespMax <= 0 {
		t.Errorf("mid response stats out of order: min %v max %v", mid.RespMin, mid.RespMax)
	}
	if mid.Jitter != mid.RespMax-mid.RespMin {
		t.Errorf("mid jitter %v != max-min %v", mid.Jitter, mid.RespMax-mid.RespMin)
	}
	high := tasks["high"]
	if high.Blocking <= 0 {
		t.Errorf("high blocking %v, want > 0 (event wait)", high.Blocking)
	}
	if high.Jobs != 1 {
		t.Errorf("high jobs = %d, want 1 (terminated aperiodic)", high.Jobs)
	}
	var busySum sim.Time
	for _, tr := range pe.Tasks {
		busySum += tr.Busy
	}
	// Per-task busy partitions PE busy up to context-switch overhead,
	// which is zero here (no WithContextSwitchCost).
	if busySum != pe.Busy {
		t.Errorf("sum of task busy %v != PE busy %v", busySum, pe.Busy)
	}
}

func TestReportWriteText(t *testing.T) {
	agg := NewAggregator()
	_, end := scenario(t, agg)
	agg.SetEnd(end)
	var sb strings.Builder
	if err := agg.Report().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"PE PE:", "context switches", "mid", "high", "low"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestMergeDoublesCounters(t *testing.T) {
	agg1, agg2 := NewAggregator(), NewAggregator()
	_, end1 := scenario(t, agg1)
	agg1.SetEnd(end1)
	_, end2 := scenario(t, agg2)
	agg2.SetEnd(end2)
	r1 := agg1.Report()
	merged := Merge(agg1.Report(), agg2.Report())

	if len(merged.PEs) != 1 {
		t.Fatalf("merged PEs = %d, want 1 (same name folds)", len(merged.PEs))
	}
	m, s := merged.PEs[0], r1.PEs[0]
	if m.Dispatches != 2*s.Dispatches || m.ContextSwitches != 2*s.ContextSwitches {
		t.Errorf("merged counters not doubled: %d/%d vs single %d/%d",
			m.Dispatches, m.ContextSwitches, s.Dispatches, s.ContextSwitches)
	}
	if m.Span != 2*s.Span || m.Busy != 2*s.Busy {
		t.Errorf("merged span/busy not doubled")
	}
	// Identical runs: utilization and response stats are unchanged.
	if m.Utilization != s.Utilization {
		t.Errorf("merged utilization %v != single %v", m.Utilization, s.Utilization)
	}
	var mt, st_ TaskReport
	for _, tr := range m.Tasks {
		if tr.Task == "mid" {
			mt = tr
		}
	}
	for _, tr := range s.Tasks {
		if tr.Task == "mid" {
			st_ = tr
		}
	}
	if mt.Jobs != 2*st_.Jobs {
		t.Errorf("merged mid jobs %d, want %d", mt.Jobs, 2*st_.Jobs)
	}
	if mt.RespMean != st_.RespMean || mt.RespP99 != st_.RespP99 {
		t.Errorf("merged response stats changed: mean %v p99 %v vs %v %v",
			mt.RespMean, mt.RespP99, st_.RespMean, st_.RespP99)
	}
}

// TestMarkerLatencies pins trace.Recorder.Latencies' pairing rule on the
// event stream: the first from-marker of an argument opens a latency, its
// first to-marker at or after it closes it, and the output follows the
// from-markers.
func TestMarkerLatencies(t *testing.T) {
	marker := func(at sim.Time, label string, arg int64) Event {
		return Event{At: at, Kind: KindMarker, Other: label, Arg: arg}
	}
	cases := []struct {
		name   string
		events []Event
		want   []sim.Time
	}{
		{"in-order", []Event{
			marker(10, "in", 0),
			marker(15, "in", 1),
			marker(30, "out", 0),
			{At: 31, Kind: KindDispatch, PE: "PE", Task: "x"}, // ignored
			marker(55, "out", 1),
			marker(60, "out", 9), // unmatched
		}, []sim.Time{20, 40}},
		{"second-out-dropped", []Event{
			marker(10, "in", 0),
			marker(20, "out", 0),
			marker(30, "out", 0),
		}, []sim.Time{10}},
		{"from-marker-order", []Event{
			marker(10, "in", 0),
			marker(15, "in", 1),
			marker(20, "out", 1),
			marker(30, "out", 0),
		}, []sim.Time{20, 5}},
		{"empty", nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := MarkerLatencies(c.events, "in", "out"); fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("latencies = %v, want %v", got, c.want)
			}
		})
	}
}

func TestBusMarkerAndCollector(t *testing.T) {
	col := &Collector{}
	bus := NewBus(col)
	bus.Marker(42, "frame-in", "src", 7)
	if len(col.Events) != 1 {
		t.Fatalf("collector has %d events, want 1", len(col.Events))
	}
	e := col.Events[0]
	if e.Kind != KindMarker || e.At != 42 || e.Other != "frame-in" || e.Task != "src" || e.Arg != 7 {
		t.Errorf("marker event = %+v", e)
	}
	if s := e.String(); !strings.Contains(s, "frame-in") || !strings.Contains(s, "arg=7") {
		t.Errorf("marker String() = %q", s)
	}
}

func TestEventStringStable(t *testing.T) {
	// The golden-trace format contract: one representative line per kind.
	cases := []struct {
		e    Event
		want string
	}{
		{Event{At: 100, Kind: KindDispatch, PE: "PE", Task: "b", Other: "a"}, "a -> b"},
		{Event{At: 100, Kind: KindDispatch, PE: "PE"}, "- -> -"},
		{Event{At: 100, Kind: KindPreempt, PE: "PE", Task: "low", Other: "hi"}, "low by hi"},
		{Event{At: 100, Kind: KindBlock, PE: "PE", Task: "t", Reason: core.BlockEvent}, "t (event)"},
		{Event{At: 100, Kind: KindReadyLen, PE: "PE", Arg: 3}, "readyq"},
		{Event{At: 100, Kind: KindIRQEnter, PE: "PE", Other: "irq0"}, "irq0"},
	}
	for _, c := range cases {
		if got := c.e.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want substring %q", got, c.want)
		}
	}
}
