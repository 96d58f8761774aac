package telemetry

// Regression tests for the nearest-rank percentile telemetry reports
// (Percentile): degenerate 1- and 2-sample populations, exact-rank
// products that round badly in floating point, and the textbook n=100
// case.

import (
	"testing"

	"repro/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []sim.Time {
		xs := make([]sim.Time, n)
		for i := range xs {
			xs[i] = sim.Time(i + 1) // 1..n, already the sorted ranks
		}
		return xs
	}
	cases := []struct {
		name string
		xs   []sim.Time
		p    float64
		want sim.Time
	}{
		// n=1: every percentile of a single sample is that sample.
		{"n1-p0", []sim.Time{42}, 0, 42},
		{"n1-p50", []sim.Time{42}, 0.5, 42},
		{"n1-p99", []sim.Time{42}, 0.99, 42},
		{"n1-p100", []sim.Time{42}, 1, 42},
		// n=2: p50 is the smaller sample (rank ceil(0.5*2)=1), anything
		// above 50% is the larger one — p99 of {10,20} must be 20, which
		// the old round-half-up index got wrong via idx=int(1.98+0.5)-1=1
		// only by accident; for p75 it returned the wrong element.
		{"n2-p50", []sim.Time{20, 10}, 0.5, 10},
		{"n2-p75", []sim.Time{20, 10}, 0.75, 20},
		{"n2-p99", []sim.Time{20, 10}, 0.99, 20},
		{"n2-p100", []sim.Time{20, 10}, 1, 20},
		// n=3: ranks ceil(0.3*3)=1, ceil(0.5*3)=2, ceil(0.99*3)=3.
		{"n3-p30", []sim.Time{3, 1, 2}, 0.3, 1},
		{"n3-p50", []sim.Time{3, 1, 2}, 0.5, 2},
		{"n3-p99", []sim.Time{3, 1, 2}, 0.99, 3},
		// n=100: the textbook case — p99 is the 99th of 100 ranks.
		{"n100-p0", seq(100), 0, 1},
		{"n100-p1", seq(100), 0.01, 1},
		{"n100-p50", seq(100), 0.5, 50},
		{"n100-p90", seq(100), 0.9, 90},
		{"n100-p99", seq(100), 0.99, 99},
		{"n100-p100", seq(100), 1, 100},
		// n=200, p99: 0.99*200 is 198.00000000000003 in float64; without
		// the epsilon ceil lifts it to rank 199.
		{"n200-p99-fp", seq(200), 0.99, 198},
		// n=7, p30: ceil(2.1)=3 — the old round-half-up picked rank 2.
		{"n7-p30", seq(7), 0.3, 3},
	}
	for _, c := range cases {
		if got := Percentile(c.xs, c.p); got != c.want {
			t.Errorf("%s: Percentile(%v, %v) = %v, want %v", c.name, c.xs, c.p, got, c.want)
		}
	}
}

// TestFaultEventStrings pins the golden-trace rendering of the new
// fault.* event kinds.
func TestFaultEventStrings(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{At: 10, Kind: KindFaultInject, PE: "PE", Other: "exec-scale", Task: "dsp", Arg: 150},
			"10ns       PE   cpu0 fault.inject exec-scale dsp arg=150"},
		{Event{At: 20, Kind: KindFaultDeadlock, PE: "PE", Task: "A", Other: "semaphore:s1 held by B"},
			"20ns       PE   cpu0 fault.deadlock A blocked on semaphore:s1 held by B"},
		{Event{At: 30, Kind: KindFaultStarve, PE: "PE", Task: "C", Other: "cpu"},
			"30ns       PE   cpu0 fault.starve C blocked on cpu"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
