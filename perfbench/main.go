// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload as a closed loop with a single client for a fixed number of
// seconds, checks every op's output, and prints the metrics as one JSON
// object on the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload table1 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced one-second blocks and reports the per-layer metrics: span
// timings around the calls into each layer, made from this package's own
// code, and counters read from runtime/metrics and /proc/self/io. See
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// bench is one workload.
type bench interface {
	// prepare does untimed one-off work: oracle runs, a priming life.
	prepare() error
	// setup builds the state the timed ops need; it is timed, and may be
	// called several times, each call replacing the previous state.
	setup() error
	// op runs and checks op number n; spans go under parent.
	op(n int, tr *tracer, parent int) error
	// probe replays op n's layers outside its timing (traced runs only).
	probe(n int, tr *tracer) error
	// cellsPerOp is the number of simulations one op asks for.
	cellsPerOp() int
	// layers adds the workload's per-layer metrics from the spans.
	layers(s spanStats, m map[string]float64)
	close()
}

// resetter is a workload whose state grows with every op. Every
// resetEvery ops (0: never) the benchmark calls reset, outside the op
// timings, the allocation counts and the outside counters, to bring the
// state back to what set-up left; so every op meets a state of the same
// size, however long or fast the run.
type resetter interface {
	resetEvery() int
	reset() error
}

// resetDue reports whether b wants a reset before op number n.
func resetDue(b bench, n int) (resetter, bool) {
	r, ok := b.(resetter)
	if !ok || n == 0 {
		return nil, false
	}
	k := r.resetEvery()
	return r, k > 0 && n%k == 0
}

func newBench(name string, seed int64, root string) bench {
	switch name {
	case "table1":
		return &table1{}
	case "sweep-rtc":
		return &sweepRTC{seed: seed}
	case "campaign-cold":
		return &campaignBench{seed: seed, root: root}
	case "campaign-warm":
		return &campaignBench{warm: true, seed: seed, root: root}
	}
	return nil
}

// metricDef is a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0). Their times
// are process CPU time (every thread: the client, the server's workers,
// the GC), which a hypervisor's steal does not inflate; wall-clock
// figures go to the config record and, from traced runs, to the wall.*
// per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"cpu_p50_ms", "ms"},
	{"cpu_p90_ms", "ms"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
}

// perLayer are the metrics of a traced run (--trace 1). A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"vocoder.spec_ms", "ms"},
	{"vocoder.arch_ms", "ms"},
	{"core.rtos_overhead_ratio", "ratio"},
	{"core.ns_per_switch", "ns"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.sched_wait_us_p50", "us"},
	{"runtime.mutex_wait_us_per_op", "us"},
	{"runtime.retained_kb_per_op", "KiB"},
	{"rtc.build_us", "us"},
	{"rtc.build_allocs", "count"},
	{"rtc.run_us", "us"},
	{"rtc.run_allocs", "count"},
	{"rtc.finish_us", "us"},
	{"rtc.ns_per_switch", "ns"},
	{"dse.explore_self_us", "us"},
	{"campaign.submit_us", "us"},
	{"campaign.run_ms", "ms"},
	{"campaign.fetch_us", "us"},
	{"taskset.run_goroutine_us", "us"},
	{"taskset.run_rtc_us", "us"},
	{"dse.cache_put_us", "us"},
	{"dse.cache_get_us", "us"},
	{"eventlog.append_us", "us"},
	{"receipt.sign_us", "us"},
	{"campaign.unaccounted_frac", "frac"},
	{"io.syscw_per_cell", "count"},
	{"io.wchar_per_cell", "B"},
	{"io.syscr_per_cell", "count"},
	{"campaign.executions_per_op", "count"},
	{"dse.cache_hit_frac", "frac"},
	{"campaign.replay_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.uncovered_frac", "frac"},
	{"wall.ops_per_s", "1/s"},
	{"wall.latency_p50_ms", "ms"},
	{"wall.latency_p90_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is the set-up of one run, recorded with its result.
type config struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	WorkDir     string  `json:"-"`
	FSType      string  `json:"work_dir_fs"`
	FSMemory    bool    `json:"work_dir_memory_backed"`
	Setups      int     `json:"setups"`
	Samples     int     `json:"latency_samples"`
	StealFrac   float64 `json:"host_steal_frac"`
	Blocks      int     `json:"blocks,omitempty"`
	WallSetupS  float64 `json:"wall_setup_s"`
	WallOpsPerS float64 `json:"wall_ops_per_s,omitempty"`
	WallP50ms   float64 `json:"wall_latency_p50_ms,omitempty"`
	WallP90ms   float64 `json:"wall_latency_p90_ms,omitempty"`
	Resets      int     `json:"resets"`
	TracedOps   int     `json:"traced_ops,omitempty"`
	UntracedOps int     `json:"untraced_ops,omitempty"`
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, which keeps one slow set-up from moving it.
const setupRuns = 21

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "table1 | sweep-rtc | campaign-cold | campaign-warm")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory: campaign directories, results, traces")
	flag.Parse()

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	root, err := os.MkdirTemp(*workDir, *workloadName+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(root)
	b := newBench(*workloadName, *seed, root)
	if b == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload table1|sweep-rtc|campaign-cold|campaign-warm --seed N --seconds S --trace 0|1\n")
		return 2
	}
	defer b.close()
	cfg := config{
		Workload: *workloadName, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		WorkDir: *workDir, Setups: setupRuns,
	}
	cfg.FSType, cfg.FSMemory = fsType(root)
	if *workloadName == "campaign-cold" && !cfg.FSMemory {
		// Every cold cell creates a cache file; on a disk-backed
		// filesystem the figures would time file creation, not the server.
		fmt.Fprintf(os.Stderr, "perfbench: campaign-cold needs a memory-backed --workdir; %s is on %s\n", *workDir, cfg.FSType)
		return 1
	}

	res, err := measure(b, &cfg, time.Duration(*seconds*float64(time.Second)), setupRuns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	envLine, _ := json.Marshal(cfg) // plain fields: cannot fail
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err) // a NaN or infinite metric
		return 1
	}
	fmt.Printf("config %s\n", envLine)
	name := fmt.Sprintf("%s-seed%d-trace%d.json", *workloadName, *seed, *traced)
	record, _ := json.MarshalIndent(struct {
		Config config `json:"config"`
		result
	}{cfg, res}, "", "  ")
	if err := os.WriteFile(filepath.Join(*workDir, name), record, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	fmt.Println(string(out))
	return 0
}

// measure prepares and sets up the workload, then runs the timed phase:
// all untraced (end-to-end metrics), or alternating untraced and traced
// blocks (per-layer metrics).
func measure(b bench, cfg *config, seconds time.Duration, setups int) (result, error) {
	if err := b.prepare(); err != nil {
		return result{}, fmt.Errorf("prepare: %v", err)
	}
	setupCPU := make([]float64, setups)
	setupWall := make([]float64, setups)
	for i := range setupCPU {
		t0, c0 := time.Now(), cpuTime()
		if err := b.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %v", err)
		}
		setupCPU[i], setupWall[i] = (cpuTime() - c0).Seconds(), time.Since(t0).Seconds()
	}
	cfg.WallSetupS = median(setupWall)

	var ms0, ms1 runtime.MemStats
	var lat, cpu []float64 // per op, in ms: wall time and process CPU time
	failed, n := 0, 0
	runOp := func(tr *tracer) {
		t0, c0 := time.Now(), cpuTime()
		root := tr.begin("op", n, -1)
		err := b.op(n, tr, root)
		if root >= 0 {
			tr.end(root)
		}
		cpu = append(cpu, float64(cpuTime()-c0)/float64(time.Millisecond))
		lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		if err == nil && tr != nil {
			err = b.probe(n, tr)
		}
		if err != nil {
			if failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", n, err)
			}
			failed++
		}
		n++
	}

	res := result{Metrics: map[string]metricValue{}}
	steal0, total0 := readCPUStat()
	start := time.Now()
	if !cfg.Trace {
		// Allocations of the resets are taken out of the per-op counts.
		var resetMallocs, resetBytes uint64
		runtime.ReadMemStats(&ms0)
		for time.Since(start) < seconds {
			if r, due := resetDue(b, n); due {
				var a, z runtime.MemStats
				runtime.ReadMemStats(&a)
				if err := r.reset(); err != nil {
					return result{}, fmt.Errorf("reset before op %d: %v", n, err)
				}
				runtime.ReadMemStats(&z)
				resetMallocs += z.Mallocs - a.Mallocs
				resetBytes += z.TotalAlloc - a.TotalAlloc
				cfg.Resets++
			}
			runOp(nil)
		}
		runtime.ReadMemStats(&ms1)
		cpuBlocks := blockMeans(lat, cpu, time.Second)
		cfg.Blocks = len(cpuBlocks)
		cfg.WallOpsPerS, cfg.WallP50ms, cfg.WallP90ms = wallFigures(lat)
		m := map[string]float64{
			"setup_s":       median(setupCPU),
			"cpu_ms_per_op": median(cpuBlocks),
			"cpu_p50_ms":    quantile(cpu, 0.5),
			"cpu_p90_ms":    quantile(cpu, 0.9),
			"allocs_per_op": float64(ms1.Mallocs-ms0.Mallocs-resetMallocs) / float64(n),
			"bytes_per_op":  float64(ms1.TotalAlloc-ms0.TotalAlloc-resetBytes) / float64(n),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		}
	} else {
		m, err := tracedPhase(b, cfg, seconds, runOp, &lat)
		if err != nil {
			return result{}, err
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		}
	}
	cfg.Samples = n
	if steal1, total1 := readCPUStat(); total1 > total0 {
		cfg.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	res.Attempted, res.Failed, res.Correct = n, failed, failed == 0 && n > 0
	return res, nil
}

// blockMeans cuts the ops, in run order, into blocks of consecutive ops
// whose wall latencies (latMs) add up to at least span, and returns each
// block's mean of vals (one value per op). A trailing block shorter than
// span counts only when it is the only one.
func blockMeans(latMs, vals []float64, span time.Duration) []float64 {
	var means []float64
	limit := float64(span) / float64(time.Millisecond)
	wall, sum, ops := 0.0, 0.0, 0
	for i, l := range latMs {
		wall += l
		sum += vals[i]
		ops++
		if wall >= limit {
			means = append(means, sum/float64(ops))
			wall, sum, ops = 0, 0, 0
		}
	}
	if len(means) == 0 && ops > 0 {
		means = append(means, sum/float64(ops))
	}
	return means
}

// wallFigures returns the wall-clock throughput (ops per second, from
// the median block's mean latency) and latency quantiles of the ops.
func wallFigures(latMs []float64) (opsPerS, p50, p90 float64) {
	if mean := median(blockMeans(latMs, latMs, time.Second)); mean > 0 {
		opsPerS = 1000 / mean
	}
	return opsPerS, quantile(latMs, 0.5), quantile(latMs, 0.9)
}

// maxSpans bounds the spans a traced run keeps in memory and writes out;
// once a traced block has reached it, the remaining blocks all run
// untraced.
const maxSpans = 1 << 18

// tracedPhase alternates one-second untraced and traced blocks. Outside
// counters and the retained heap come from the untraced blocks only, so
// the probes' I/O and the recorded spans never reach them; spans come
// from the traced blocks.
func tracedPhase(b bench, cfg *config, seconds time.Duration, runOp func(*tracer), lat *[]float64) (map[string]float64, error) {
	tr := newTracer()
	var delta counters
	var retained int64
	var untracedTime, tracedTime time.Duration
	var untracedLat []float64
	start := time.Now()
	var resetErr error
	reset := func(r resetter) {
		if err := r.reset(); err != nil && resetErr == nil {
			resetErr = fmt.Errorf("reset before op %d: %v", cfg.UntracedOps+cfg.TracedOps, err)
		}
		cfg.Resets++
	}
	for block := 0; time.Since(start) < seconds && resetErr == nil; block++ {
		blockEnd := time.Now().Add(time.Second)
		if block%2 == 0 || len(tr.spans) >= maxSpans {
			// A reset splits the block: counters and the live heap are
			// read on both sides of it, so it counts toward neither.
			live0 := liveHeap()
			c0, t0 := readCounters(), time.Now()
			for time.Now().Before(blockEnd) && resetErr == nil {
				if r, due := resetDue(b, cfg.UntracedOps+cfg.TracedOps); due {
					untracedTime += time.Since(t0)
					delta.add(c0, readCounters())
					retained += int64(liveHeap()) - int64(live0)
					reset(r)
					live0 = liveHeap()
					c0, t0 = readCounters(), time.Now()
				}
				runOp(nil)
				cfg.UntracedOps++
				untracedLat = append(untracedLat, (*lat)[len(*lat)-1])
			}
			untracedTime += time.Since(t0)
			delta.add(c0, readCounters())
			retained += int64(liveHeap()) - int64(live0)
			continue
		}
		for time.Now().Before(blockEnd) && resetErr == nil {
			if r, due := resetDue(b, cfg.UntracedOps+cfg.TracedOps); due {
				reset(r)
			}
			before := len(tr.spans)
			runOp(tr)
			cfg.TracedOps++
			// Only the op's own span counts toward traced throughput, not
			// the probe replays after it.
			for _, sp := range tr.spans[before:] {
				if sp.Name == "op" {
					tracedTime += sp.dur()
				}
			}
		}
	}

	if resetErr != nil {
		return nil, resetErr
	}
	m := map[string]float64{}
	b.layers(tr.stats(), m)
	ops := float64(cfg.UntracedOps)
	if ops > 0 {
		cells := ops * float64(b.cellsPerOp())
		if delta.totalCPU > 0 {
			m["runtime.gc_cpu_frac"] = delta.gcCPU / delta.totalCPU
		}
		m["runtime.gc_cycles_per_op"] = float64(delta.gcCycles) / ops
		m["runtime.sched_wait_us_p50"] = delta.schedP50() * 1e6
		m["runtime.mutex_wait_us_per_op"] = delta.mutexWait * 1e6 / ops
		m["runtime.retained_kb_per_op"] = float64(retained) / 1024 / ops
		m["io.syscw_per_cell"] = float64(delta.io["syscw"]) / cells
		m["io.wchar_per_cell"] = float64(delta.io["wchar"]) / cells
		m["io.syscr_per_cell"] = float64(delta.io["syscr"]) / cells
	}
	if cfg.TracedOps > 0 && ops > 0 && tracedTime > 0 {
		untracedRate := ops / untracedTime.Seconds()
		tracedRate := float64(cfg.TracedOps) / tracedTime.Seconds()
		m["trace.overhead_frac"] = 1 - tracedRate/untracedRate
	}
	m["trace.uncovered_frac"] = tr.uncoveredFrac()
	m["wall.ops_per_s"], m["wall.latency_p50_ms"], m["wall.latency_p90_ms"] = wallFigures(untracedLat)

	if err := tr.write(filepath.Join(cfg.WorkDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	printLayerTable(m)
	return m, nil
}

// liveHeap returns the heap still reachable after forced collections;
// the second one also empties the sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// printLayerTable prints the per-layer metrics a reader can scan.
func printLayerTable(m map[string]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("layer %-32s %14.4f\n", k, m[k])
	}
}
