package taskset

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

const goodJSON = `{
  "policy": "priority",
  "timeModel": "coarse",
  "horizonMs": 10,
  "tasks": [
    {"name": "ctrl",  "type": "periodic", "periodUs": 1000, "wcetUs": 250, "prio": 1},
    {"name": "audio", "type": "periodic", "periodUs": 4000, "wcetUs": 1500, "prio": 2},
    {"name": "init",  "type": "aperiodic", "prio": 0, "computeUs": [100, 100], "startUs": 50}
  ]
}`

func TestParseAndRun(t *testing.T) {
	s, err := Parse([]byte(goodJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "priority" || res.TimeModel != core.TimeModelCoarse {
		t.Errorf("policy/tm = %s/%s", res.Policy, res.TimeModel)
	}
	if res.Horizon != 10*sim.Millisecond {
		t.Errorf("horizon = %v, want 10ms", res.Horizon)
	}
	byName := map[string]TaskResult{}
	for _, tr := range res.Tasks {
		byName[tr.Name] = tr
	}
	// ctrl: 10ms horizon / 1ms period = ~10 activations.
	if a := byName["ctrl"].Activations; a < 9 || a > 10 {
		t.Errorf("ctrl activations = %d, want ≈10", a)
	}
	if a := byName["audio"].Activations; a < 2 || a > 3 {
		t.Errorf("audio activations = %d, want ≈2-3", a)
	}
	if byName["init"].Activations != 1 {
		t.Errorf("init activations = %d, want 1", byName["init"].Activations)
	}
	if byName["init"].CPUTime != 200*sim.Microsecond {
		t.Errorf("init cpu = %v, want 200us", byName["init"].CPUTime)
	}
	// Under the paper's coarse time model audio's 1.5 ms delay chunk is
	// non-preemptible, so ctrl (1 ms deadline) can be blocked past its
	// deadline occasionally; audio itself must never miss.
	if byName["audio"].Missed != 0 {
		t.Errorf("audio missed %d, want 0", byName["audio"].Missed)
	}
	if byName["ctrl"].Missed > 3 {
		t.Errorf("ctrl missed %d, want only occasional coarse-model blocking misses", byName["ctrl"].Missed)
	}
	if res.Trace.Len() == 0 {
		t.Error("no trace recorded")
	}
	if res.Stats.Dispatches == 0 {
		t.Error("no dispatches recorded")
	}
}

func TestSegmentedModelRemovesBlockingMisses(t *testing.T) {
	// The same set under the segmented time model: audio's chunk becomes
	// preemptible and ctrl meets every deadline — the granularity effect
	// of DESIGN.md experiment F8-PREC at task-set scale.
	s, err := Parse([]byte(goodJSON))
	if err != nil {
		t.Fatal(err)
	}
	s.TimeModel = "segmented"
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tasks {
		if tr.Missed != 0 {
			t.Errorf("task %s missed %d under segmented model, want 0", tr.Name, tr.Missed)
		}
	}
}

func TestRunPolicies(t *testing.T) {
	for _, pol := range []string{"fcfs", "rr", "edf", "rm"} {
		s, err := Parse([]byte(goodJSON))
		if err != nil {
			t.Fatal(err)
		}
		s.Policy = pol
		if pol == "rr" {
			s.QuantumUs = 500
		}
		if _, err := Run(s); err != nil {
			t.Errorf("policy %s: %v", pol, err)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct{ name, json, want string }{
		{"empty", `{"tasks": []}`, "no tasks"},
		{"unnamed", `{"tasks": [{"type":"periodic","periodUs":1,"wcetUs":1}]}`, "unnamed"},
		{"dup", `{"tasks": [
			{"name":"a","periodUs":10,"wcetUs":1},
			{"name":"a","periodUs":10,"wcetUs":1}]}`, "duplicate"},
		{"no-period", `{"tasks": [{"name":"a","wcetUs":1}]}`, "periodUs"},
		{"no-wcet", `{"tasks": [{"name":"a","periodUs":10}]}`, "wcetUs"},
		{"no-compute", `{"tasks": [{"name":"a","type":"aperiodic"}]}`, "computeUs"},
		{"bad-type", `{"tasks": [{"name":"a","type":"sporadic"}]}`, "unknown type"},
		{"bad-tm", `{"timeModel":"loose","tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`, "time model"},
		{"bad-json", `{`, "unexpected end"},
		{"wcet-over-period", `{"tasks":[{"name":"a","periodUs":10,"wcetUs":11}]}`, "utilization > 1"},
		{"neg-start", `{"tasks":[{"name":"a","type":"aperiodic","startUs":-5,"computeUs":[10]}]}`, "negative startUs"},
		{"neg-compute", `{"tasks":[{"name":"a","type":"aperiodic","computeUs":[10,-1]}]}`, "negative computeUs[1]"},
		{"neg-cycles", `{"tasks":[{"name":"a","periodUs":1000,"wcetUs":100,"cycles":-1}]}`, "negative cycles"},
		{"neg-horizon", `{"horizonMs":-1,"tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`, "negative horizonMs"},
		{"neg-quantum", `{"quantumUs":-1,"tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`, "negative quantumUs"},
		{"bad-policy", `{"policy":"lottery","tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`, "lottery"},
		{"bad-personality", `{"personality":"vxworks","tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`, "unknown personality"},
		{"neg-cpus", `{"cpus":-1,"tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`, "negative cpus"},
		{"personality-smp", `{"personality":"itron","cpus":2,"tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`,
			`personality "itron" models a uniprocessor RTOS`},
		{"generic-personality-smp", `{"personality":"generic","cpus":4,"tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`,
			"drop \"personality\""},
		{"uniproc-policy-smp", `{"policy":"rr","quantumUs":100,"cpus":2,"tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`,
			`needs "g-fp" or "g-edf"`},
		{"smp-policy-uniproc", `{"policy":"g-edf","tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`,
			`set "cpus" > 1`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.json))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

// TestRunSMP pins the cpus>1 path: a personality-free set runs on the
// global SMP scheduler, and two independent full-utilization tasks on two
// CPUs both make full progress (impossible on one CPU).
func TestRunSMP(t *testing.T) {
	s, err := Parse([]byte(`{
	  "policy": "g-fp",
	  "cpus": 2,
	  "horizonMs": 10,
	  "tasks": [
	    {"name": "a", "type": "periodic", "periodUs": 1000, "wcetUs": 900, "prio": 1},
	    {"name": "b", "type": "periodic", "periodUs": 1000, "wcetUs": 900, "prio": 2}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUs != 2 || res.Policy != "g-fp" {
		t.Errorf("CPUs/Policy = %d/%s, want 2/g-fp", res.CPUs, res.Policy)
	}
	for _, tr := range res.Tasks {
		if tr.Activations < 9 {
			t.Errorf("%s activations = %d, want ≈10 (both CPUs busy)", tr.Name, tr.Activations)
		}
		if tr.Missed != 0 {
			t.Errorf("%s missed = %d, want 0", tr.Name, tr.Missed)
		}
	}
	// 2 CPUs × ~10 cycles × 900µs ≈ 18ms of busy time in a 10ms horizon.
	if res.Stats.BusyTime < 15*sim.Millisecond {
		t.Errorf("busy = %v, want ≈18ms across both CPUs", res.Stats.BusyTime)
	}
}

// TestRunSMPTelemetry: a telemetry bus passed to Run on a multiprocessor
// set is attached to the SMP scheduler, so it sees tasks dispatched on
// both CPUs instead of staying silent.
func TestRunSMPTelemetry(t *testing.T) {
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
	perCPU := map[int]int{}
	for _, e := range c.Events {
		if e.Kind == telemetry.KindDispatch && e.Task != "" {
			perCPU[e.CPU]++
		}
	}
	if perCPU[0] == 0 || perCPU[1] == 0 {
		t.Errorf("task dispatches per CPU = %v (of %d events), want some on cpu 0 and cpu 1", perCPU, len(c.Events))
	}
}

func TestPeriodicWithCyclesTerminates(t *testing.T) {
	s := &Set{
		HorizonMs: 100,
		Tasks: []Task{
			{Name: "p", Type: "periodic", PeriodUs: 100, WcetUs: 10, Cycles: 5},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks[0].Activations != 5 {
		t.Errorf("activations = %d, want 5", res.Tasks[0].Activations)
	}
	// Ends after the 5th cycle, long before the horizon.
	if res.End >= res.Horizon {
		t.Errorf("end = %v, want < horizon %v", res.End, res.Horizon)
	}
}

func TestOverloadDetected(t *testing.T) {
	s := &Set{
		HorizonMs: 5,
		Tasks: []Task{
			{Name: "a", Type: "periodic", PeriodUs: 100, WcetUs: 80, Prio: 1},
			{Name: "b", Type: "periodic", PeriodUs: 100, WcetUs: 80, Prio: 2},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	for _, tr := range res.Tasks {
		missed += tr.Missed
	}
	if missed == 0 {
		t.Error("overloaded set reported no misses")
	}
}

// TestPersonalityEquivalence runs the same set under every RTOS
// personality. Task lifecycle operations (activate, compute, end-cycle,
// terminate) are identical passthroughs in all three adapters, so every
// per-task outcome — and the trace itself — must be byte-equivalent to
// the generic run; only the Result label differs.
func TestPersonalityEquivalence(t *testing.T) {
	base, err := Parse([]byte(goodJSON))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Personality != "generic" {
		t.Errorf("default personality = %q, want generic", ref.Personality)
	}
	for _, pers := range []string{"generic", "itron", "osek"} {
		s := *base
		s.Personality = pers
		res, err := Run(&s)
		if err != nil {
			t.Fatalf("%s: %v", pers, err)
		}
		if res.Personality != pers {
			t.Errorf("Result.Personality = %q, want %q", res.Personality, pers)
		}
		for i, tr := range res.Tasks {
			if tr != ref.Tasks[i] {
				t.Errorf("%s: task %s = %+v, want %+v", pers, tr.Name, tr, ref.Tasks[i])
			}
		}
		if res.Stats.ContextSwitches != ref.Stats.ContextSwitches {
			t.Errorf("%s: context switches = %d, want %d",
				pers, res.Stats.ContextSwitches, ref.Stats.ContextSwitches)
		}
	}
}

// TestEngineEquivalence runs the same set on the goroutine kernel and
// the run-to-completion engine across the policy × time-model ×
// personality matrix: every per-task outcome, the OS statistics, the end
// time and the trace itself must match record for record.
func TestEngineEquivalence(t *testing.T) {
	for _, pol := range []string{"priority", "fcfs", "rr", "edf", "rm"} {
		for _, tm := range []string{"coarse", "segmented"} {
			for _, pers := range []string{"generic", "itron", "osek"} {
				base, err := Parse([]byte(goodJSON))
				if err != nil {
					t.Fatal(err)
				}
				base.Policy = pol
				if pol == "rr" {
					base.QuantumUs = 500
				}
				base.TimeModel = tm
				base.Personality = pers
				ref, err := Run(base)
				if err != nil {
					t.Fatalf("%s/%s/%s goroutine: %v", pol, tm, pers, err)
				}

				s := *base
				s.Engine = "rtc"
				res, err := Run(&s)
				if err != nil {
					t.Fatalf("%s/%s/%s rtc: %v", pol, tm, pers, err)
				}
				tag := pol + "/" + tm + "/" + pers
				if res.Policy != ref.Policy || res.Personality != ref.Personality ||
					res.End != ref.End || res.Stats != ref.Stats {
					t.Errorf("%s: header/stats diverge:\nrtc       %s %s end=%v %+v\ngoroutine %s %s end=%v %+v",
						tag, res.Policy, res.Personality, res.End, res.Stats,
						ref.Policy, ref.Personality, ref.End, ref.Stats)
				}
				for i, tr := range res.Tasks {
					if tr != ref.Tasks[i] {
						t.Errorf("%s: task %s = %+v, want %+v", tag, tr.Name, tr, ref.Tasks[i])
					}
				}
				refRecs, recs := ref.Trace.Records(), res.Trace.Records()
				if len(recs) != len(refRecs) {
					t.Errorf("%s: %d trace records, want %d", tag, len(recs), len(refRecs))
					continue
				}
				for i := range recs {
					if recs[i] != refRecs[i] {
						t.Errorf("%s: trace record %d:\nrtc       %s\ngoroutine %s",
							tag, i, recs[i], refRecs[i])
						break
					}
				}
			}
		}
	}
}

// TestEngineValidation pins the engine axis's error surface.
func TestEngineValidation(t *testing.T) {
	cases := []struct{ name, json, want string }{
		{"bad-engine", `{"engine":"fiber","tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`,
			`unknown engine "fiber"`},
		{"rtc-smp", `{"engine":"rtc","cpus":2,"tasks":[{"name":"a","periodUs":10,"wcetUs":1}]}`,
			`engine "rtc" models a uniprocessor`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.json))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

// TestEngineEquivalenceTelemetry: a bus attached to a set's run receives
// the same event stream on either engine, under every personality and
// both time models.
func TestEngineEquivalenceTelemetry(t *testing.T) {
	for _, tm := range []string{"coarse", "segmented"} {
		for _, pers := range []string{"generic", "itron", "osek"} {
			var streams [2][]telemetry.Event
			for i, engine := range []string{"goroutine", "rtc"} {
				s, err := Parse([]byte(goodJSON))
				if err != nil {
					t.Fatal(err)
				}
				s.TimeModel, s.Personality, s.Engine = tm, pers, engine
				var c telemetry.Collector
				if _, err := Run(s, telemetry.NewBus(&c)); err != nil {
					t.Fatalf("%s/%s/%s: %v", tm, pers, engine, err)
				}
				streams[i] = c.Events
			}
			g, r := streams[0], streams[1]
			if len(g) == 0 {
				t.Fatalf("%s/%s: goroutine run fed the bus no events", tm, pers)
			}
			for i := range min(len(g), len(r)) {
				if g[i] != r[i] {
					t.Fatalf("%s/%s: event %d:\nrtc       %s\ngoroutine %s", tm, pers, i, r[i], g[i])
				}
			}
			if len(g) != len(r) {
				t.Errorf("%s/%s: rtc fed %d events, goroutine %d", tm, pers, len(r), len(g))
			}
		}
	}
}

// TestRoundRobinDefaultQuantum pins the 1 ms default slice under every
// round-robin name: "rr" and the "roundrobin" alias without quantumUs,
// and a quantum that rounds to 0 ns, all run with 1 ms on either engine.
func TestRoundRobinDefaultQuantum(t *testing.T) {
	const tasks = `"horizonMs":10,"tasks":[
		{"name":"a","periodUs":4000,"wcetUs":1500,"prio":1},
		{"name":"b","periodUs":4000,"wcetUs":1500,"prio":1}]}`
	engines := []string{"goroutine", "rtc"}
	want := make(map[string]*Result, len(engines))
	for _, engine := range engines {
		ref, err := Parse([]byte(`{"policy":"rr","quantumUs":1000,"engine":"` + engine + `",` + tasks))
		if err != nil {
			t.Fatal(err)
		}
		if want[engine], err = Run(ref); err != nil {
			t.Fatalf("%s reference: %v", engine, err)
		}
	}
	for _, c := range []struct{ name, head string }{
		{"roundrobin-no-quantum", `{"policy":"roundrobin",`},
		{"rr-zero-ns-quantum", `{"policy":"rr","quantumUs":0.0001,`},
		{"rr-no-quantum", `{"policy":"rr",`},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, engine := range engines {
				s, err := Parse([]byte(c.head + `"engine":"` + engine + `",` + tasks))
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				got, err := Run(s)
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				w := want[engine]
				if got.Policy != w.Policy || got.End != w.End || got.Stats != w.Stats {
					t.Errorf("%s: %s end=%v %+v, want %s end=%v %+v", engine,
						got.Policy, got.End, got.Stats, w.Policy, w.End, w.Stats)
				}
				for i, tr := range got.Tasks {
					if tr != w.Tasks[i] {
						t.Errorf("%s: task %s = %+v, want %+v", engine, tr.Name, tr, w.Tasks[i])
					}
				}
			}
		})
	}
}
