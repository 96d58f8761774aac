package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestExecIntervalsFromSegments(t *testing.T) {
	r := New("spec")
	r.SegBegin(0, "B2")
	r.SegEnd(10, "B2")
	r.SegBegin(10, "B2") // touching: must merge
	r.SegEnd(25, "B2")
	r.SegBegin(40, "B2")
	r.SegEnd(50, "B2")
	ivs := r.ExecIntervals("B2")
	want := []Interval{{0, 25}, {40, 50}}
	if len(ivs) != len(want) {
		t.Fatalf("intervals = %v, want %v", ivs, want)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, ivs[i], want[i])
		}
	}
	if bt := r.BusyTime("B2"); bt != 35 {
		t.Errorf("busy time = %v, want 35", bt)
	}
}

func TestExecIntervalsFromTaskStates(t *testing.T) {
	r := New("arch")
	add := func(at sim.Time, task, from, to string) {
		r.Append(Record{At: at, Kind: KindTaskState, Task: task, From: from, To: to})
	}
	add(0, "T", "created", "ready")
	add(5, "T", "ready", "running")
	add(5, "T", "running", "delay") // running->delay: still active
	add(20, "T", "delay", "running")
	add(20, "T", "running", "wait-event")
	add(60, "T", "wait-event", "ready")
	add(65, "T", "ready", "running")
	add(80, "T", "running", "terminated")
	ivs := r.ExecIntervals("T")
	want := []Interval{{5, 20}, {65, 80}}
	if len(ivs) != 2 || ivs[0] != want[0] || ivs[1] != want[1] {
		t.Errorf("intervals = %v, want %v", ivs, want)
	}
}

func TestOpenIntervalClosedAtTraceEnd(t *testing.T) {
	r := New("x")
	r.SegBegin(10, "A")
	r.Marker(90, "tick", "", 0)
	ivs := r.ExecIntervals("A")
	if len(ivs) != 1 || ivs[0] != (Interval{10, 90}) {
		t.Errorf("intervals = %v, want [{10 90}]", ivs)
	}
}

func TestContextSwitches(t *testing.T) {
	r := New("arch")
	d := func(at sim.Time, from, to string) {
		r.Append(Record{At: at, Kind: KindDispatch, From: from, To: to})
	}
	d(0, "-", "A")  // first dispatch: not a switch
	d(10, "A", "B") // switch 1
	d(20, "B", "-") // idle: not a switch
	d(30, "-", "B") // same task resumes: not a switch
	d(40, "B", "A") // switch 2
	if n := r.ContextSwitches(); n != 2 {
		t.Errorf("context switches = %d, want 2", n)
	}
}

func TestLatencies(t *testing.T) {
	r := New("x")
	r.Marker(0, "in", "", 0)
	r.Marker(100, "in", "", 1)
	r.Marker(30, "out", "", 0)
	r.Marker(180, "out", "", 1)
	r.Marker(200, "in", "", 2) // no matching out: dropped
	lats := r.Latencies("in", "out")
	if len(lats) != 2 || lats[0] != 30 || lats[1] != 80 {
		t.Errorf("latencies = %v, want [30 80]", lats)
	}
}

func TestLatenciesIgnoreEarlierOut(t *testing.T) {
	r := New("x")
	r.Marker(50, "out", "", 7) // stale out before in
	r.Marker(60, "in", "", 7)
	r.Marker(90, "out", "", 7)
	lats := r.Latencies("in", "out")
	if len(lats) != 1 || lats[0] != 30 {
		t.Errorf("latencies = %v, want [30]", lats)
	}
}

func TestResponseTimes(t *testing.T) {
	r := New("arch")
	add := func(at sim.Time, to string) {
		r.Append(Record{At: at, Kind: KindTaskState, Task: "T", From: "x", To: to})
	}
	add(0, "ready")
	add(5, "running")
	add(20, "wait-event")
	add(100, "ready")
	add(130, "running")
	rts := r.ResponseTimes("T")
	if len(rts) != 2 || rts[0] != 5 || rts[1] != 30 {
		t.Errorf("response times = %v, want [5 30]", rts)
	}
}

func TestOverlap(t *testing.T) {
	r := New("spec")
	r.SegBegin(0, "A")
	r.SegEnd(50, "A")
	r.SegBegin(30, "B")
	r.SegEnd(80, "B")
	if ov := r.Overlap("A", "B"); ov != 20 {
		t.Errorf("overlap = %v, want 20", ov)
	}
	if ov := r.Overlap("B", "A"); ov != 20 {
		t.Errorf("overlap (reversed) = %v, want 20", ov)
	}
}

func TestAttachRecordsRTOSActivity(t *testing.T) {
	k := sim.NewKernel()
	os := core.New(k, "PE", core.PriorityPolicy{})
	r := New("arch")
	telemetry.Attach(os, r)
	a := os.TaskCreate("a", core.Aperiodic, 0, 0, 1)
	b := os.TaskCreate("b", core.Aperiodic, 0, 0, 2)
	body := func(task *core.Task, d sim.Time) sim.Func {
		return func(p *sim.Proc) {
			os.TaskActivate(p, task)
			os.TimeWait(p, d)
			os.TaskTerminate(p)
		}
	}
	k.Spawn("a", body(a, 30))
	k.Spawn("b", body(b, 20))
	os.Start(nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Serialized execution: no overlap, busy times preserved.
	if ov := r.Overlap("a", "b"); ov != 0 {
		t.Errorf("overlap = %v, want 0 (serialized)", ov)
	}
	if bt := r.BusyTime("a"); bt != 30 {
		t.Errorf("busy(a) = %v, want 30", bt)
	}
	if bt := r.BusyTime("b"); bt != 20 {
		t.Errorf("busy(b) = %v, want 20", bt)
	}
	if cs := r.ContextSwitches(); cs != 1 {
		t.Errorf("context switches = %d, want 1", cs)
	}
	if got := r.Tasks(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("tasks = %v, want [a b]", got)
	}
}

func TestGanttRendering(t *testing.T) {
	r := New("spec")
	r.SegBegin(0, "A")
	r.SegEnd(50, "A")
	r.SegBegin(50, "B")
	r.SegEnd(100, "B")
	var sb strings.Builder
	if err := r.Gantt(&sb, GanttOptions{Width: 10}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "A") || !strings.Contains(lines[0], "#####.....") {
		t.Errorf("row A = %q", lines[0])
	}
	if !strings.Contains(lines[1], "B") || !strings.Contains(lines[1], ".....#####") {
		t.Errorf("row B = %q", lines[1])
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	r := New("empty")
	var sb strings.Builder
	if err := r.Gantt(&sb, GanttOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Errorf("empty gantt output = %q", sb.String())
	}
}

func TestEventListAndCSV(t *testing.T) {
	r := New("x")
	r.Append(Record{At: 5, Kind: KindDispatch, From: "-", To: "A"})
	r.Append(Record{At: 7, Kind: KindIRQ, Label: "irq0", Arg: 1})
	r.Marker(9, "m", "A", 3)
	var ev strings.Builder
	if err := r.EventList(&ev); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dispatch - -> A", "irq0 enter", "marker   m A arg=3"} {
		if !strings.Contains(ev.String(), want) {
			t.Errorf("event list missing %q:\n%s", want, ev.String())
		}
	}
	var csv strings.Builder
	if err := r.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d, want 4", len(lines))
	}
	if lines[0] != "at,kind,task,from,to,label,arg" {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[1] != "5,dispatch,,-,A,,0" {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestMarkerTimes(t *testing.T) {
	r := New("x")
	r.Marker(1, "a", "", 0)
	r.Marker(5, "b", "", 0)
	r.Marker(9, "a", "", 1)
	got := r.MarkerTimes("a")
	if len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Errorf("marker times = %v, want [1 9]", got)
	}
}

func TestRecordStrings(t *testing.T) {
	kinds := []Kind{KindTaskState, KindDispatch, KindIRQ, KindMarker, KindSegBegin, KindSegEnd}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", int(k))
		}
		rec := Record{At: 1, Kind: k, Task: "t", From: "f", To: "g", Label: "l"}
		if rec.String() == "" {
			t.Errorf("record of kind %v renders empty", k)
		}
	}
}

// TestMarkerLatencies pins Latencies' pairing rule on a telemetry event
// stream fed through Emit: the first from-marker of an argument opens a
// latency, its first to-marker at or after it closes it, and the output
// follows the from-markers.
func TestMarkerLatencies(t *testing.T) {
	marker := func(at sim.Time, label string, arg int64) telemetry.Event {
		return telemetry.Event{At: at, Kind: telemetry.KindMarker, Other: label, Arg: arg}
	}
	cases := []struct {
		name   string
		events []telemetry.Event
		want   []sim.Time
	}{
		{"in-order", []telemetry.Event{
			marker(10, "in", 0),
			marker(15, "in", 1),
			marker(30, "out", 0),
			{At: 31, Kind: telemetry.KindDispatch, PE: "PE", Task: "x"}, // ignored
			marker(55, "out", 1),
			marker(60, "out", 9), // unmatched
		}, []sim.Time{20, 40}},
		{"second-out-dropped", []telemetry.Event{
			marker(10, "in", 0),
			marker(20, "out", 0),
			marker(30, "out", 0),
		}, []sim.Time{10}},
		{"from-marker-order", []telemetry.Event{
			marker(10, "in", 0),
			marker(15, "in", 1),
			marker(20, "out", 1),
			marker(30, "out", 0),
		}, []sim.Time{20, 5}},
		{"empty", nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := New("stream")
			for _, e := range c.events {
				r.Emit(e)
			}
			if got := r.Latencies("in", "out"); fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("latencies = %v, want %v", got, c.want)
			}
		})
	}
}
