package simcheck

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestGenerateDeterministic: the same seed must yield the same scenario
// in every process — the replay contract the reproduction instructions
// rely on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a := Generate(seed).MarshalIndent()
		b := Generate(seed).MarshalIndent()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d generated two different scenarios:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestScenarioRoundTrip: the JSON reproducer format must round-trip.
func TestScenarioRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		s := Generate(seed)
		got, err := ParseScenario(s.MarshalIndent())
		if err != nil {
			t.Fatalf("seed %d does not round-trip: %v", seed, err)
		}
		if !bytes.Equal(got.MarshalIndent(), s.MarshalIndent()) {
			t.Fatalf("seed %d round-trips to a different scenario", seed)
		}
	}
}

// TestMatrixInvariants is the harness entry point: it generates task
// sets and checks every invariant and oracle across the full
// policy × time-model × PE-count matrix (each config run twice for the
// determinism oracle).
func TestMatrixInvariants(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 25
	}
	runs, failures := 0, 0
	for seed := int64(1); seed <= n; seed++ {
		s := Generate(seed)
		runs += len(Matrix(s))
		for _, f := range Check(s) {
			failures++
			t.Errorf("seed %d: %s\nscenario:\n%s", seed, f, s.MarshalIndent())
			if failures >= 5 {
				t.Fatalf("stopping after %d failing scenarios", failures)
			}
		}
	}
	t.Logf("checked %d scenarios, %d matrix runs (each doubled for determinism)", n, runs)
	if !testing.Short() && runs < 200 {
		t.Errorf("matrix coverage too small: %d runs", runs)
	}
}

// TestKnownSchedulableScenario pins the RTA oracle on a hand-built set
// whose response times are easy to verify by hand:
//
//	T0: C=10us T=100us prio 0  ->  R0 = 10us
//	T1: C=20us T=200us prio 1  ->  R1 = 20 + ceil(R1/100)*10 = 30us
func TestKnownSchedulableScenario(t *testing.T) {
	s := &Scenario{
		Seed: -1,
		Tasks: []TaskSpec{
			{Name: "T0", Type: "periodic", Prio: 0, Period: 100 * sim.Microsecond,
				Cycles: 3, Segments: []sim.Time{10 * sim.Microsecond}},
			{Name: "T1", Type: "periodic", Prio: 1, Period: 200 * sim.Microsecond,
				Cycles: 2, Segments: []sim.Time{20 * sim.Microsecond}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, f := range Check(s) {
		t.Errorf("%s", f)
	}
	res := Run(s, Config{Policy: "priority", TimeModel: "segmented", CPUs: 1})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Tasks[0].MaxResp; got != 10*sim.Microsecond {
		t.Errorf("T0 max response = %v, want 10us", got)
	}
	if got := res.Tasks[1].MaxResp; got != 30*sim.Microsecond {
		t.Errorf("T1 max response = %v, want 30us (preempted once by T0)", got)
	}
}

// TestCheckerFlagsDoctoredTraces proves the invariant checker is not
// vacuous: hand-written record streams with planted violations must be
// caught, and the coarse model's legal delay-granularity window must not.
func TestCheckerFlagsDoctoredTraces(t *testing.T) {
	s := &Scenario{
		Tasks: []TaskSpec{
			{Name: "T0", Type: "periodic", Prio: 0, Period: 100 * sim.Microsecond,
				Cycles: 1, Segments: []sim.Time{sim.Microsecond}},
			{Name: "T1", Type: "periodic", Prio: 1, Period: 100 * sim.Microsecond,
				Cycles: 1, Segments: []sim.Time{sim.Microsecond}},
		},
	}
	segmented := Config{Policy: "priority", TimeModel: "segmented", CPUs: 1}
	coarse := Config{Policy: "priority", TimeModel: "coarse", CPUs: 1}
	state := func(at sim.Time, task, to string) trace.Record {
		return trace.Record{At: at, Kind: trace.KindTaskState, Task: task, To: to}
	}
	marker := func(at sim.Time) trace.Record {
		return trace.Record{At: at, Kind: trace.KindMarker, Label: "end"}
	}
	cases := []struct {
		name    string
		cfg     Config
		records []trace.Record
		want    string // violation kind, "" for clean
	}{
		{"inversion across time step", segmented, []trace.Record{
			state(0, "T1", "running"),
			state(0, "T0", "ready"),
			marker(100 * sim.Microsecond),
		}, "priority-inversion"},
		{"coarse delay window is legal", coarse, []trace.Record{
			state(0, "T1", "delay"),
			state(5*sim.Microsecond, "T0", "ready"),
			marker(100 * sim.Microsecond),
		}, ""},
		{"segmented must preempt the delay", segmented, []trace.Record{
			state(0, "T1", "delay"),
			state(5*sim.Microsecond, "T0", "ready"),
			marker(100 * sim.Microsecond),
		}, "priority-inversion"},
		{"delay that predates readiness but outlives it is flagged when re-entered", coarse, []trace.Record{
			state(0, "T0", "ready"),
			state(5*sim.Microsecond, "T1", "delay"),
			marker(100 * sim.Microsecond),
		}, "priority-inversion"},
		{"two tasks on one PE", segmented, []trace.Record{
			state(0, "T0", "running"),
			state(0, "T1", "running"),
		}, "single-running"},
		{"unbalanced irq", segmented, []trace.Record{
			{At: 0, Kind: trace.KindIRQ, Label: "irq0", Arg: 1},
		}, "irq-balance"},
		{"time going backwards", segmented, []trace.Record{
			marker(10 * sim.Microsecond),
			marker(5 * sim.Microsecond),
		}, "monotone-time"},
	}
	for _, tc := range cases {
		rec := trace.New("doctored")
		for _, r := range tc.records {
			rec.Append(r)
		}
		res := &RunResult{Config: tc.cfg, Recorder: rec}
		vs := checkSingleTrace(s, res)
		if tc.want == "" {
			if len(vs) != 0 {
				t.Errorf("%s: unexpected violations %v", tc.name, vs)
			}
			continue
		}
		found := false
		for _, v := range vs {
			if v.Kind == tc.want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: wanted a %q violation, got %v", tc.name, tc.want, vs)
		}
	}
}

// TestShrinkReduces: with an always-true predicate the shrinker must
// drive any scenario down to a single minimal task while keeping every
// intermediate candidate valid.
func TestShrinkReduces(t *testing.T) {
	s := Generate(3)
	small := Shrink(s, func(c *Scenario) bool {
		if err := c.Validate(); err != nil {
			t.Fatalf("shrinker proposed invalid candidate: %v", err)
		}
		return true
	}, 500)
	if len(small.Tasks) != 1 {
		t.Fatalf("shrunk to %d tasks, want 1:\n%s", len(small.Tasks), small.MarshalIndent())
	}
	tk := &small.Tasks[0]
	switch tk.Type {
	case "periodic":
		if tk.Cycles != 1 || len(tk.Segments) != 1 || tk.Segments[0] != sim.Microsecond {
			t.Errorf("periodic task not minimal:\n%s", small.MarshalIndent())
		}
	case "aperiodic":
		if len(tk.Ops) != 1 || tk.Ops[0].Dur > sim.Microsecond {
			t.Errorf("aperiodic task not minimal:\n%s", small.MarshalIndent())
		}
	}
}

// TestShrinkPreservesTargetedFailure: shrinking against a predicate that
// needs a specific structural feature must keep that feature.
func TestShrinkPreservesTargetedFailure(t *testing.T) {
	var s *Scenario
	for seed := int64(1); seed <= 200; seed++ {
		c := Generate(seed)
		if len(c.IRQs) > 0 {
			s = c
			break
		}
	}
	if s == nil {
		t.Fatal("no generated scenario with an IRQ in 200 seeds")
	}
	hasIRQ := func(c *Scenario) bool { return len(c.IRQs) > 0 }
	small := Shrink(s, hasIRQ, 500)
	if !hasIRQ(small) {
		t.Fatalf("shrinking lost the failing feature:\n%s", small.MarshalIndent())
	}
	if len(small.Tasks) >= len(s.Tasks) && len(s.Tasks) > 1 {
		t.Errorf("shrinker made no progress: %d tasks before, %d after", len(s.Tasks), len(small.Tasks))
	}
}

// TestWatchdogPeriodBoundaryNoFalsePositive replays the shrunk soak
// reproducer of seed 12164: task T2's second period wake lands exactly on
// a watchdog check instant (918 µs = 3 × the 306 µs window) with no
// dispatch in the preceding window, so a single-sample watchdog saw
// "ready task, no progress" and misdiagnosed starvation on every policy
// under the segmented model. The watchdog now confirms starvation over a
// second window; this scenario must check clean across the whole matrix.
func TestWatchdogPeriodBoundaryNoFalsePositive(t *testing.T) {
	s, err := ParseScenario([]byte(`{
		"seed": 12164,
		"tasks": [
			{"name": "T0", "type": "aperiodic", "prio": 1,
			 "ops": [{"kind": "delay", "dur": 19000}]},
			{"name": "T1", "type": "periodic", "prio": 2, "period": 1000,
			 "cycles": 1, "segments": [15000, 13000, 17000]},
			{"name": "T2", "type": "periodic", "prio": 0, "period": 459000,
			 "cycles": 2, "segments": [12000, 11000, 9000]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Check(s) {
		t.Errorf("%v", f)
	}
}
