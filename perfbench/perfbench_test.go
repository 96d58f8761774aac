package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks BENCHMARK.json against the metrics the program
// reports and the naming rules of the file.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q invalid or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q invalid", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, program reports %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, program reports %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || newBench(w.Name, 1, t.TempDir()) == nil {
			t.Errorf("workload %q invalid, repeated or unknown", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func runFor(t *testing.T, workload string, d time.Duration, traced bool) result {
	t.Helper()
	b := newBench(workload, 7, t.TempDir())
	defer b.close()
	cfg := config{Workload: workload, Seed: 7, Trace: traced, WorkDir: t.TempDir()}
	res, err := measure(b, &cfg, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed", workload, res.Failed, res.Attempted)
	}
	return res
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

// TestPerOpMetricsIndependentOfRunLength runs each workload briefly and
// three times as long on the same seed: a metric normalized per op must
// not move with the number of ops a run completes.
func TestPerOpMetricsIndependentOfRunLength(t *testing.T) {
	if testing.Short() {
		t.Skip("timed runs")
	}
	for _, w := range []string{"table1", "sweep-rtc", "campaign-cold", "campaign-warm"} {
		short, long := runFor(t, w, 700*time.Millisecond, false), runFor(t, w, 2100*time.Millisecond, false)
		for _, m := range []string{"allocs_per_op", "bytes_per_op"} {
			if a, b := short.Metrics[m].Value, long.Metrics[m].Value; !near(a, b, 0.05) {
				t.Errorf("%s %s: %.1f in a short run, %.1f in a long one", w, m, a, b)
			}
		}
	}
	for _, w := range []string{"campaign-cold", "campaign-warm"} {
		short, long := runFor(t, w, 2*time.Second, true), runFor(t, w, 6*time.Second, true)
		exact := []string{"campaign.executions_per_op", "dse.cache_hit_frac"}
		for _, m := range exact {
			if a, b := short.Metrics[m].Value, long.Metrics[m].Value; a != b {
				t.Errorf("%s %s: %v in a short run, %v in a long one", w, m, a, b)
			}
		}
		for _, m := range []string{"io.syscw_per_cell", "io.wchar_per_cell", "runtime.retained_kb_per_op"} {
			if a, b := short.Metrics[m].Value, long.Metrics[m].Value; !near(a, b, 0.25) {
				t.Errorf("%s %s: %.2f in a short run, %.2f in a long one", w, m, a, b)
			}
		}
	}
}

// submitOne runs one cold job to its receipt on a fresh server.
func submitOne(t *testing.T) (*campaignBench, job, []byte) {
	t.Helper()
	b := &campaignBench{seed: 3, root: t.TempDir()}
	t.Cleanup(b.close)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	j, err := submitAndFetch(b.srv, campaignSet(3, "campaign-cold", 99), axesFor(0), nil, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.srv.Result(j.id)
	if err != nil {
		t.Fatal(err)
	}
	return b, j, res
}

// TestTamperedOutputsFail checks that a changed result, a changed or
// re-signed receipt, and an engine mismatch each fail the op's check.
func TestTamperedOutputsFail(t *testing.T) {
	b, j, res := submitOne(t)
	if err := checkJob(&j, res, b.srv.VerifyReceipt(j.rcpt)); err != nil {
		t.Fatalf("untampered job fails its check: %v", err)
	}

	bad := append([]byte(nil), res...)
	i := strings.LastIndex(string(bad), "ctxsw=")
	bad[i+6] ^= 1
	if err := checkJob(&j, bad, b.srv.VerifyReceipt(j.rcpt)); err == nil {
		t.Error("a result with one changed byte passes")
	}

	forged := j.rcpt
	forged.ResultHash = strings.Repeat("0", 64)
	if err := checkJob(&job{id: j.id, rcpt: forged}, res, b.srv.VerifyReceipt(forged)); err == nil {
		t.Error("a receipt with a changed hash passes")
	}
	forged = j.rcpt
	forged.Cells = 23
	if err := checkJob(&job{id: j.id, rcpt: forged}, res, true); err == nil {
		t.Error("a receipt for the wrong cell count passes even with a valid signature")
	}

	swapped := j
	swapped.cells = map[string][]byte{}
	for l, c := range j.cells {
		swapped.cells[l] = c
		if strings.Contains(l, "engine=rtc") && strings.Contains(l, "policy=edf") {
			swapped.cells[l] = append([]byte("x"), c...)
		}
	}
	if err := checkEngines(swapped); err == nil {
		t.Error("an rtc cell that differs from its goroutine twin passes")
	}
}

// TestDeduplicatedWarmJobFails resubmits a warm op's job: the server
// answers with the original job and runs nothing, which must count as a
// failed op, never as a fast one.
func TestDeduplicatedWarmJobFails(t *testing.T) {
	b := &campaignBench{warm: true, seed: 5, root: t.TempDir()}
	defer b.close()
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if err := b.op(0, nil, -1); err != nil {
		t.Fatalf("first warm op: %v", err)
	}
	err := b.op(0, nil, -1)
	if err == nil || !strings.Contains(err.Error(), "deduplicated") {
		t.Fatalf("resubmitted warm job: err = %v, want a deduplication failure", err)
	}
	// The canonical ordering is the priming life's own job: also a dup.
	if _, err := submitAndFetch(b.srv, b.primed[0], axesFor(0), nil, -1, -1); err == nil {
		t.Fatal("resubmitting a priming job passes")
	}
}

// TestAxisOrderings checks that every ordering of the campaign axes is a
// distinct submission over the same 24 cells.
func TestAxisOrderings(t *testing.T) {
	seen := map[string]bool{}
	base := campaignSet(1, "campaign-warm", 0)
	for _, perm := range []int{0, 1, 2, 23, 24, 575, 576, permsPerBase - 1} {
		p, err := jobPayload(base, axesFor(perm))
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(p)] {
			t.Errorf("ordering %d repeats an earlier payload", perm)
		}
		seen[string(p)] = true
		cells := 1
		for _, a := range axesFor(perm) {
			cells *= len(a.Values)
		}
		if cells != 24 {
			t.Errorf("ordering %d spans %d cells", perm, cells)
		}
	}
}

// TestSweepCheckCatchesEngineMismatch perturbs the goroutine-kernel
// oracle of one configuration: the sweep op must fail.
func TestSweepCheckCatchesEngineMismatch(t *testing.T) {
	b := &sweepRTC{seed: 2}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := b.setup(); err != nil {
		t.Fatalf("unperturbed sweep: %v", err)
	}
	key := b.keys[len(b.keys)/2]
	want := b.want[key]
	want.tasks = append([]taskOutcome(nil), want.tasks...)
	want.tasks[0].cpu++
	b.want[key] = want
	if err := b.op(0, nil, -1); err == nil || !strings.Contains(err.Error(), key) {
		t.Fatalf("sweep with a perturbed oracle for %s: err = %v", key, err)
	}
}

// TestWarmResetStartsAFreshLife checks that a reset brings the warm
// server back to the priming life's journal: the job the first op of a
// life submits is new again in the next life, and the op number at the
// start of the next life submits that same job.
func TestWarmResetStartsAFreshLife(t *testing.T) {
	b := &campaignBench{warm: true, seed: 5, root: t.TempDir()}
	defer b.close()
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if err := b.op(0, nil, -1); err != nil {
		t.Fatalf("first warm op: %v", err)
	}
	first := b.last
	if _, due := resetDue(b, warmLife); !due {
		t.Fatalf("no reset due before op %d", warmLife)
	}
	if err := b.reset(); err != nil {
		t.Fatal(err)
	}
	if err := b.op(warmLife, nil, -1); err != nil {
		t.Fatalf("first op of the second life: %v", err)
	}
	if b.last.id != first.id || string(b.last.payload) != string(first.payload) || b.last.rcpt.Sig != first.rcpt.Sig {
		t.Errorf("second life's first job %s differs from the first life's %s", b.last.id, first.id)
	}
}

// TestBlockMeans checks the blocks: whole blocks of at least the span
// of wall time, a short tail dropped unless it is all there is.
func TestBlockMeans(t *testing.T) {
	lat := []float64{400, 600, 250, 250, 500, 300}
	cpu := []float64{1, 3, 2, 2, 2, 9}
	got := blockMeans(lat, cpu, time.Second)
	if len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Errorf("blockMeans = %v, want [2 2]", got)
	}
	if got := blockMeans([]float64{100, 150}, []float64{1, 2}, time.Second); len(got) != 1 || got[0] != 1.5 {
		t.Errorf("blockMeans of a short run = %v, want [1.5]", got)
	}
	if ops, p50, _ := wallFigures([]float64{400, 600, 250, 250, 500, 300, 700}); ops != 2 || p50 != 400 {
		t.Errorf("wallFigures = %v ops/s, p50 %v ms; want 2, 400", ops, p50)
	}
}
