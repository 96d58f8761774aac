package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestMean(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
	if m := Mean([]sim.Time{10, 20, 30}); m != 20 {
		t.Errorf("Mean = %v, want 20", m)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]sim.Time{5, 1, 9, 3})
	if min != 1 || max != 9 {
		t.Errorf("MinMax = %v,%v, want 1,9", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Errorf("MinMax(nil) = %v,%v", min, max)
	}
}

// TestPercentile and TestQuickPercentileBounds pin the nearest-rank rule
// of telemetry.Percentile, the repo's one percentile, on the latency
// samples trace's helpers summarize.
func TestPercentile(t *testing.T) {
	xs := []sim.Time{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want sim.Time
	}{
		{0, 10},
		{0.5, 50},
		{0.95, 100},
		{1, 100},
	}
	for _, c := range cases {
		if got := telemetry.Percentile(xs, c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", 100*c.p, got, c.want)
		}
	}
	if telemetry.Percentile(nil, 0.5) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

// TestQuickPercentileBounds: any percentile lies within [min, max] and is
// one of the samples; the input slice is never mutated.
func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]sim.Time, len(raw))
		orig := make([]sim.Time, len(raw))
		for i, v := range raw {
			xs[i] = sim.Time(v)
			orig[i] = sim.Time(v)
		}
		p := float64(pRaw) / 255
		got := telemetry.Percentile(xs, p)
		min, max := MinMax(xs)
		if got < min || got > max {
			return false
		}
		found := false
		for i, x := range xs {
			if x == got {
				found = true
			}
			if x != orig[i] {
				return false // mutated input
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeAndReport(t *testing.T) {
	r := New("pe")
	add := func(at sim.Time, task, from, to string) {
		r.Append(Record{At: at, Kind: KindTaskState, Task: task, From: from, To: to})
	}
	disp := func(at sim.Time, from, to string) {
		r.Append(Record{At: at, Kind: KindDispatch, From: from, To: to})
	}
	add(0, "A", "created", "ready")
	disp(0, "-", "A")
	add(0, "A", "ready", "running")
	add(0, "A", "running", "delay")
	add(60, "A", "delay", "running")
	add(60, "A", "running", "ready") // preempted
	disp(60, "A", "B")
	add(60, "B", "created", "running")
	add(60, "B", "running", "delay")
	add(100, "B", "delay", "running")
	add(100, "B", "running", "terminated")
	disp(100, "B", "A")
	add(100, "A", "ready", "running")
	add(100, "A", "running", "terminated")

	sums := r.Summarize()
	byTask := map[string]TaskSummary{}
	for _, s := range sums {
		byTask[s.Task] = s
	}
	if byTask["A"].Busy != 60 {
		t.Errorf("A busy = %v, want 60", byTask["A"].Busy)
	}
	if byTask["B"].Busy != 40 {
		t.Errorf("B busy = %v, want 40", byTask["B"].Busy)
	}
	if byTask["A"].Preemptions != 1 {
		t.Errorf("A preemptions = %d, want 1", byTask["A"].Preemptions)
	}
	if byTask["A"].Dispatches != 2 {
		t.Errorf("A dispatches = %d, want 2", byTask["A"].Dispatches)
	}
	if byTask["A"].BusyPct < 59 || byTask["A"].BusyPct > 61 {
		t.Errorf("A busy%% = %.1f, want 60", byTask["A"].BusyPct)
	}

	var sb strings.Builder
	if err := r.Report(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"task", "A", "B", "context switches 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
