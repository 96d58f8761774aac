package campaign

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/idempotency"
	"repro/internal/campaign/receipt"
	"repro/internal/campaign/runstate"
	"repro/internal/dse"
	"repro/internal/taskset"
)

// benchSweep is a warm campaign's submission shape: a 6-task periodic
// base fanned out to 4 policies × 3 personalities × 2 engines = 24
// cells, with a one-value horizonMs axis.
const benchSweep = `{"base": {"policy": "priority", "quantumUs": 1000, "horizonMs": 20, "tasks": [
  {"name": "w0_t0", "type": "periodic", "periodUs": 2000, "wcetUs": 310, "prio": 1},
  {"name": "w0_t1", "type": "periodic", "periodUs": 4000, "wcetUs": 520, "prio": 2},
  {"name": "w0_t2", "type": "periodic", "periodUs": 5000, "wcetUs": 480, "prio": 3},
  {"name": "w0_t3", "type": "periodic", "periodUs": 5000, "wcetUs": 650, "prio": 4},
  {"name": "w0_t4", "type": "periodic", "periodUs": 10000, "wcetUs": 1100, "prio": 5},
  {"name": "w0_t5", "type": "periodic", "periodUs": 20000, "wcetUs": 1900, "prio": 6}
]}, "axes": [
  {"name": "policy", "values": ["priority", "rr", "rm", "edf"]},
  {"name": "personality", "values": ["generic", "itron", "osek"]},
  {"name": "engine", "values": ["goroutine", "rtc"]},
  {"name": "horizonMs", "values": ["20"]}
]}`

// BenchmarkBuildDSEJob times the submit-side work of a 24-cell dse job:
// decode, validate, the job key and every cell's key and label.
func BenchmarkBuildDSEJob(b *testing.B) {
	payload := []byte(benchSweep)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, cells, err := buildJob(KindDSE, payload)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 24 {
			b.Fatalf("%d cells, want 24", len(cells))
		}
	}
}

// dseSubmitAllocCeiling is about 1.1× the 256 allocations building
// goldenSweep's job measured with one rendering of the base's task lines
// per job (go1.24, with and without -race). Rendering and validating the
// whole variant per cell, and hashing each key into two strings, made
// 351.
const dseSubmitAllocCeiling = 280

// TestDSESubmitAllocBudget pins the allocations of building goldenSweep's
// 24-cell job, so per-cell rendering, validation and hashing cannot
// creep back into the submit path unnoticed.
func TestDSESubmitAllocBudget(t *testing.T) {
	payload := []byte(goldenSweep)
	avg := testing.AllocsPerRun(20, func() {
		if _, _, err := buildJob(KindDSE, payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per dse buildJob (ceiling %d)", avg, dseSubmitAllocCeiling)
	if avg > dseSubmitAllocCeiling {
		t.Errorf("dse buildJob allocates %.0f times, over the budget of %d", avg, dseSubmitAllocCeiling)
	}
}

// keyBase draws a valid uniprocessor base set: periodic tasks and
// aperiodic ones with compute segments, the first named so that its
// canonical form escapes a quote, a tab and a non-ASCII rune.
func keyBase(rng *rand.Rand) *taskset.Set {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	s := &taskset.Set{
		Policy:      pick("", "priority", "prio", "rr", "roundrobin", "edf", "rm", "fifo"),
		QuantumUs:   []float64{0, 250, 1000, 0.0001}[rng.Intn(4)],
		TimeModel:   pick("", "coarse", "segmented"),
		Personality: pick("", "generic", "itron", "osek"),
		CPUs:        rng.Intn(2),
		Engine:      pick("", "goroutine", "rtc"),
		HorizonMs:   []float64{0, 5, 12.5}[rng.Intn(3)],
	}
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		t := taskset.Task{Name: fmt.Sprintf("t%d", i), Prio: 1 + rng.Intn(8)}
		if i == 0 {
			t.Name = "say \"hé\"\t"
		}
		if rng.Intn(2) == 0 {
			t.Type = pick("", "periodic")
			t.PeriodUs = float64(500 * (1 + rng.Intn(20)))
			t.WcetUs = 1 + rng.Float64()*t.PeriodUs/4
			t.Cycles = rng.Intn(3)
		} else {
			t.Type = "aperiodic"
			t.StartUs = rng.Float64() * 1000
			for j, m := 0, 1+rng.Intn(4); j < m; j++ {
				t.ComputeUs = append(t.ComputeUs, rng.Int63n(500))
			}
		}
		s.Tasks = append(s.Tasks, t)
	}
	return s
}

// keyAxes are the sweeps TestDSEKeyEquivalence submits over each base:
// every axis, policy aliases, and numbers written in several ways.
var keyAxes = [][]dse.Axis{
	{
		{Name: "policy", Values: []string{"prio", "roundrobin", "edf", "fifo"}},
		{Name: "quantumUs", Values: []string{"250", "1e3", "0.0001"}},
	},
	{
		{Name: "timeModel", Values: []string{"segmented", "coarse"}},
		{Name: "personality", Values: []string{"osek", "generic", "itron"}},
		{Name: "engine", Values: []string{"rtc", "goroutine"}},
	},
	{
		{Name: "horizonMs", Values: []string{"3", "0.5"}},
		{Name: "policy", Values: []string{"rm", "roundrobin"}},
		{Name: "engine", Values: []string{"goroutine", "rtc"}},
		{Name: "quantumUs", Values: []string{"500"}},
	},
	{
		{Name: "policy", Values: []string{"rr", "prio"}},
		{Name: "quantumUs", Values: []string{"750", "0"}},
		{Name: "timeModel", Values: []string{"coarse", "segmented"}},
		{Name: "personality", Values: []string{"itron", "generic"}},
		{Name: "engine", Values: []string{"rtc"}},
		{Name: "horizonMs", Values: []string{"2.5", "4"}},
	},
}

// withConfig applies cfg to a copy of base field by field: the
// reference applyConfig is checked against.
func withConfig(base *taskset.Set, cfg dse.Config) *taskset.Set {
	v := *base
	for name, val := range cfg {
		num, _ := strconv.ParseFloat(val, 64)
		switch name {
		case "policy":
			v.Policy = val
		case "timeModel":
			v.TimeModel = val
		case "personality":
			v.Personality = val
		case "engine":
			v.Engine = val
		case "quantumUs":
			v.QuantumUs = num
		case "horizonMs":
			v.HorizonMs = num
		}
	}
	return &v
}

// TestDSEKeyEquivalence: the job key and every cell key and label of a
// dse job equal the ones rendered whole: the cell key hashes
// dse.Canonical of the variant checked with the full Validate, the job
// key hashes the base's Canonical and each axis as fmt's %q writes it.
// Bases are drawn from several seeds and each sweep's axes are
// submitted in a shuffled order.
func TestDSEKeyEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		baseJSON, err := json.Marshal(keyBase(rng))
		if err != nil {
			t.Fatal(err)
		}
		base, err := taskset.Parse(baseJSON)
		if err != nil {
			t.Fatalf("seed %d: base: %v", seed, err)
		}
		for n, sweep := range keyAxes {
			axes := append([]dse.Axis(nil), sweep...)
			rng.Shuffle(len(axes), func(i, j int) { axes[i], axes[j] = axes[j], axes[i] })
			payload, err := json.Marshal(map[string]any{"base": json.RawMessage(baseJSON), "axes": dseAxisJSON(axes)})
			if err != nil {
				t.Fatal(err)
			}
			key, cells, err := buildJob(KindDSE, payload)
			if err != nil {
				t.Fatalf("seed %d sweep %d: %v", seed, n, err)
			}
			grid := dse.Grid(axes)
			if len(cells) != len(grid) {
				t.Fatalf("seed %d sweep %d: %d cells, want %d", seed, n, len(cells), len(grid))
			}
			for i, cfg := range grid {
				v := withConfig(base, cfg)
				if err := v.Validate(); err != nil {
					t.Fatalf("seed %d sweep %d: configuration %s: %v", seed, n, cfg.Key(), err)
				}
				want := idempotency.Key("cell:taskset", dse.Canonical(v))
				if cells[i].key != want || cells[i].label != cfg.Key() {
					t.Fatalf("seed %d sweep %d cell %d: key %s label %q, want %s %q",
						seed, n, i, cells[i].key, cells[i].label, want, cfg.Key())
				}
			}
			canon := append([]byte("base="), dse.Canonical(base)...)
			for _, a := range axes {
				canon = append(canon, fmt.Sprintf("axis name=%q values=%q\n", a.Name, a.Values)...)
			}
			if want := idempotency.Key("dse", canon); key != want {
				t.Fatalf("seed %d sweep %d: job key %s, want %s", seed, n, key, want)
			}
		}
	}
}

// dseAxisJSON is axes in a dse payload's form.
func dseAxisJSON(axes []dse.Axis) []dseAxis {
	out := make([]dseAxis, len(axes))
	for i, a := range axes {
		out[i] = dseAxis{Name: a.Name, Values: a.Values}
	}
	return out
}

// TestApplyConfigErrorsMatchValidate: a variant checked with ValidateRun
// alone is refused with the text the full Validate gives it.
func TestApplyConfigErrorsMatchValidate(t *testing.T) {
	uni, err := taskset.Parse([]byte(goldenSet))
	if err != nil {
		t.Fatal(err)
	}
	smp := *uni
	smp.CPUs, smp.Policy = 2, ""
	cases := []struct {
		name string
		base *taskset.Set
		cfg  dse.Config
		want string
	}{
		{"unknown policy", uni, dse.Config{"policy": "psychic"},
			`configuration policy=psychic: taskset: core: unknown scheduling policy "psychic"`},
		{"global policy on one cpu", uni, dse.Config{"policy": "g-fp"},
			`configuration policy=g-fp: taskset: policy "g-fp" is a global SMP policy; set "cpus" > 1 to use it`},
		{"unknown personality", uni, dse.Config{"personality": "vxworks"},
			`configuration personality=vxworks: taskset: unknown personality "vxworks" (have [generic itron osek])`},
		{"unknown time model", uni, dse.Config{"timeModel": "fine"},
			`configuration timeModel=fine: taskset: unknown time model "fine"`},
		{"unknown engine", uni, dse.Config{"engine": "fpga"},
			`configuration engine=fpga: taskset: unknown engine "fpga" (have "goroutine", "rtc")`},
		{"negative quantum", uni, dse.Config{"quantumUs": "-5"},
			`configuration quantumUs=-5: taskset: negative quantumUs -5`},
		{"negative horizon", uni, dse.Config{"horizonMs": "-0.5"},
			`configuration horizonMs=-0.5: taskset: negative horizonMs -0.5`},
		{"uniprocessor policy on two cpus", &smp, dse.Config{"policy": "rr"},
			`configuration policy=rr: taskset: policy "rr" is a uniprocessor policy; cpus 2 needs "g-fp" or "g-edf"`},
		{"rtc on two cpus", &smp, dse.Config{"engine": "rtc", "policy": "g-edf"},
			`configuration engine=rtc policy=g-edf: taskset: engine "rtc" models a uniprocessor; set "cpus" to 1 or use the goroutine engine for the global SMP scheduler`},
		{"personality on two cpus", &smp, dse.Config{"personality": "itron"},
			`configuration personality=itron: taskset: personality "itron" models a uniprocessor RTOS and cannot run on 2 CPUs; set "cpus" to 1 or drop "personality" to use the global SMP scheduler`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := applyConfig(tc.base, tc.cfg)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("applyConfig: err = %v, want %q", err, tc.want)
			}
			full := withConfig(tc.base, tc.cfg).Validate()
			if full == nil || "configuration "+tc.cfg.Key()+": "+full.Error() != tc.want {
				t.Fatalf("Validate: err = %v, want the text of %q", full, tc.want)
			}
		})
	}
}

// TestResumeRepeatedAxes: a dse job journaled before repeated axes were
// refused follows the stale-job rules on reopen. Done, it keeps its
// status and receipt and says why its result cannot be reassembled;
// queued, it fails with the reason.
func TestResumeRepeatedAxes(t *testing.T) {
	dir := t.TempDir()
	key := []byte("repeated-axes-key")
	log, _, err := eventlog.Open(filepath.Join(dir, "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	twice := fmt.Sprintf(`{"base": %s, "axes": [{"name": "policy", "values": ["rr", "edf"]}, {"name": "policy", "values": ["rm"]}]}`, tinySet)
	repeated := fmt.Sprintf(`{"base": %s, "axes": [{"name": "policy", "values": ["rr", "rr"]}]}`, tinySet)
	const resHash = "0000000000000000000000000000000000000000000000000000000000000000"
	rcpt := receipt.Sign(receipt.Receipt{Job: "job-000001", Kind: KindDSE, Key: "dse:twice", Cells: 2, ResultHash: resHash}, key)
	for _, ev := range []struct {
		typ  string
		data any
	}{
		{runstate.EvJobAccepted, runstate.JobAccepted{ID: "job-000001", Kind: KindDSE, Key: "dse:twice",
			Cells: []string{"cell:a", "cell:a"}, Payload: json.RawMessage(twice)}},
		{runstate.EvCellStarted, runstate.CellStarted{Job: "job-000001", Idx: 0}},
		{runstate.EvCellDone, runstate.CellDone{Job: "job-000001", Idx: 0, Hash: resHash}},
		{runstate.EvCellStarted, runstate.CellStarted{Job: "job-000001", Idx: 1}},
		{runstate.EvCellDone, runstate.CellDone{Job: "job-000001", Idx: 1, Hash: resHash}},
		{runstate.EvJobDone, runstate.JobDone{ID: "job-000001", ResultHash: resHash, Receipt: rcpt}},
		{runstate.EvJobAccepted, runstate.JobAccepted{ID: "job-000002", Kind: KindDSE, Key: "dse:repeated",
			Cells: []string{"cell:b", "cell:b"}, Payload: json.RawMessage(repeated)}},
	} {
		if err := log.Append(ev.typ, ev.data); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	s, err := Open(Options{Dir: dir, Jobs: 1, Key: key})
	if err != nil {
		t.Fatalf("directory with repeated-axis jobs refused: %v", err)
	}
	defer s.Close()
	want := map[string]struct{ status, err string }{
		"job-000001": {runstate.StatusDone, `payload no longer builds: campaign: dse axis "policy" given twice`},
		"job-000002": {runstate.StatusFailed, `campaign: job job-000002 payload no longer builds: campaign: dse axis policy repeats value "rr"`},
	}
	for id, w := range want {
		st, ok := s.Status(id)
		if !ok || st.Status != w.status || st.Error != w.err {
			t.Errorf("%s: status %s error %q, want %s error %q", id, st.Status, st.Error, w.status, w.err)
		}
	}
	if r, err := s.Receipt("job-000001"); err != nil || !s.VerifyReceipt(r) {
		t.Errorf("done job: receipt %+v err %v, want a verified receipt", r, err)
	}
	if _, err := s.Result("job-000001"); err == nil || !strings.Contains(err.Error(), "cannot be reassembled") {
		t.Errorf("done job: Result err = %v, want it cannot be reassembled", err)
	}
}
