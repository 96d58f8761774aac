package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/idempotency"
	"repro/internal/campaign/receipt"
	"repro/internal/campaign/runstate"
	"repro/internal/dse"
	"repro/internal/taskset"
	"repro/internal/telemetry"
)

const (
	campaignWorkers = 2  // runner fan-out per job; the box has 2 CPUs
	primedBases     = 16 // campaign-warm: base sets cached by the priming life
	jobTimeout      = time.Minute

	// warmLife is the number of jobs one campaign-warm server life takes
	// before reset restores the primed directory: the server keeps every
	// job in memory and in its journal, so without it later ops would meet
	// a larger heap and journal than earlier ones, and a faster build,
	// completing more jobs, would be slowed by its own work.
	warmLife = 1000
)

// campaignAxes lists the axes of every campaign job in their canonical
// order: 4 policies x 3 personalities x 2 engines = 24 cells. horizonMs
// has the base's own value; it only widens the space of submissions that
// name the same cells (see axesFor).
var campaignAxes = []dse.Axis{
	{Name: "policy", Values: []string{"priority", "rr", "rm", "edf"}},
	{Name: "personality", Values: []string{"generic", "itron", "osek"}},
	{Name: "engine", Values: []string{"goroutine", "rtc"}},
	{Name: "horizonMs", Values: []string{"20"}},
}

// permsPerBase is the number of distinct orderings of campaignAxes: 4!
// axis orders x 4! x 3! x 2! value orders. Each ordering is a distinct
// job (idempotency key) over the same 24 cells.
const permsPerBase = 24 * 24 * 6 * 2

// axesFor returns ordering number perm of campaignAxes (0 = canonical).
func axesFor(perm int) []dse.Axis {
	axes := make([]dse.Axis, len(campaignAxes))
	for i, a := range campaignAxes {
		n := len(a.Values)
		vals := nthPerm(a.Values, perm%factorial(n))
		perm /= factorial(n)
		axes[i] = dse.Axis{Name: a.Name, Values: vals}
	}
	return nthPerm(axes, perm%factorial(len(axes)))
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// nthPerm returns permutation number k of s in lexicographic order of
// indices (Lehmer code).
func nthPerm[T any](s []T, k int) []T {
	pool := append([]T(nil), s...)
	out := make([]T, 0, len(s))
	for n := len(pool); n > 0; n-- {
		f := factorial(n - 1)
		i := k / f
		k %= f
		out = append(out, pool[i])
		pool = append(pool[:i], pool[i+1:]...)
	}
	return out
}

// campaignSet generates the base task set of one campaign job: 6 periodic
// tasks, U=0.8, 20 ms horizon; name prefixes keep sets distinct.
func campaignSet(seed int64, stream string, n int) *taskset.Set {
	return periodicSet(rngFor(seed, stream, n), 0.8, []float64{2, 4, 5, 5, 10, 20}, 20, fmt.Sprintf("%s%d_", stream[len(stream)-4:], n))
}

// jobPayload renders a dse job submission.
func jobPayload(base *taskset.Set, axes []dse.Axis) ([]byte, error) {
	type axis struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	}
	p := struct {
		Base *taskset.Set `json:"base"`
		Axes []axis       `json:"axes"`
	}{Base: base}
	for _, a := range axes {
		p.Axes = append(p.Axes, axis{a.Name, a.Values})
	}
	return json.Marshal(p)
}

// job is one fetched campaign job: what the checks and the probes need.
type job struct {
	id      string
	base    *taskset.Set
	axes    []dse.Axis
	payload []byte
	labels  []string          // cell labels in result order
	cells   map[string][]byte // cell bytes by label
	rcpt    receipt.Receipt
}

// campaignBench submits one dse job per op to an in-process campaign
// server and waits for its signed receipt. cold: every cell is new.
// warm: every cell was cached by an earlier server life over the same
// directory.
type campaignBench struct {
	warm bool
	seed int64
	root string // scratch directory of this run, removed by close

	srv       *campaign.Server
	dir       string
	setups    int
	jobs      int                 // cold jobs submitted, for distinct inputs
	primed    []*taskset.Set      // warm: base sets of the priming life
	cellsOf   []map[string][]byte // warm: the priming life's cell bytes per base
	opens     []time.Duration     // campaign.Open durations of the set-ups and resets
	primedLog []byte              // warm: the journal as the priming life left it

	execs, hits, misses, ops int64 // over timed ops
	last                     job   // for probes

	probeCache *dse.Cache
	probeLog   *eventlog.Log
}

func (b *campaignBench) stream() string {
	if b.warm {
		return "campaign-warm"
	}
	return "campaign-cold"
}

// prepare runs the warm workload's priming life: one job per primed base
// with the canonical axis order, whose cells every timed op then reuses.
func (b *campaignBench) prepare() error {
	if !b.warm {
		return nil
	}
	b.dir = filepath.Join(b.root, "campaign")
	srv, err := campaign.Open(campaign.Options{Dir: b.dir, Jobs: campaignWorkers})
	if err != nil {
		return err
	}
	if err := b.prime(srv); err != nil {
		srv.Close()
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}
	b.primedLog, err = os.ReadFile(filepath.Join(b.dir, "events.log"))
	return err
}

// prime submits the priming life's jobs and keeps their cells.
func (b *campaignBench) prime(srv *campaign.Server) error {
	for p := 0; p < primedBases; p++ {
		base := campaignSet(b.seed, b.stream(), p)
		j, err := submitAndFetch(srv, base, axesFor(0), nil, -1, -1)
		if err != nil {
			return fmt.Errorf("priming job %d: %v", p, err)
		}
		if err := checkEngines(j); err != nil {
			return fmt.Errorf("priming job %d: %v", p, err)
		}
		b.primed = append(b.primed, base)
		b.cellsOf = append(b.cellsOf, j.cells)
	}
	if got := srv.Executions(); got != primedBases*24 {
		return fmt.Errorf("priming life executed %d cells, want %d", got, primedBases*24)
	}
	return nil
}

func (b *campaignBench) resetEvery() int {
	if b.warm {
		return warmLife
	}
	return 0
}

// reset ends the warm server's life and restores its journal to the
// priming life's; the cache needs no restoring, as warm jobs only read
// it. The next life starts as a set-up does, with campaign.Open.
func (b *campaignBench) reset() error {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	if err := os.WriteFile(filepath.Join(b.dir, "events.log"), b.primedLog, 0o644); err != nil {
		return err
	}
	return b.setup()
}

// setup opens the campaign directory: a fresh one plus a checked warm-up
// job when cold, the primed one (journal replay) when warm.
func (b *campaignBench) setup() error {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	b.setups++
	if !b.warm {
		if b.dir != "" {
			os.RemoveAll(b.dir)
		}
		b.dir = filepath.Join(b.root, fmt.Sprintf("campaign-%d", b.setups))
	}
	t0 := time.Now()
	srv, err := campaign.Open(campaign.Options{Dir: b.dir, Jobs: campaignWorkers})
	b.opens = append(b.opens, time.Since(t0))
	if err != nil {
		return err
	}
	b.srv = srv
	if b.warm {
		return nil
	}
	err = b.op(-1, nil, -1)
	b.execs, b.hits, b.misses, b.ops = 0, 0, 0, 0
	return err
}

func (b *campaignBench) op(n int, tr *tracer, parent int) error {
	var base *taskset.Set
	var axes []dse.Axis
	var want map[string][]byte
	if b.warm {
		if n < 0 {
			return fmt.Errorf("warm ops need an op number")
		}
		// Job i of a server life: a primed base under an ordering no
		// earlier job of the life used. Every life submits the same jobs.
		i := n % warmLife
		base, axes, want = b.primed[i%primedBases], axesFor(1+i/primedBases), b.cellsOf[i%primedBases]
	} else {
		b.jobs++
		base, axes = campaignSet(b.seed, b.stream(), b.jobs), axesFor(0)
	}
	st0, execs0 := b.srv.CacheStats(), b.srv.Executions()
	j, err := submitAndFetch(b.srv, base, axes, tr, n, parent)
	if err != nil {
		return err
	}
	st1, execs1 := b.srv.CacheStats(), b.srv.Executions()
	execs, hits, misses := execs1-execs0, int64(st1.Hits-st0.Hits), int64(st1.Misses-st0.Misses)
	b.execs, b.hits, b.misses, b.ops = b.execs+execs, b.hits+hits, b.misses+misses, b.ops+1
	b.last = j

	cells := int64(len(j.labels))
	if b.warm {
		if execs != 0 || hits != cells {
			return fmt.Errorf("warm job %s: %d executions, %d cache hits, want 0 and %d", j.id, execs, hits, cells)
		}
		for _, l := range j.labels {
			if !bytes.Equal(j.cells[l], want[l]) {
				return fmt.Errorf("warm job %s: cell %s differs from the priming life's bytes", j.id, l)
			}
		}
		return nil
	}
	if execs != cells || hits != 0 {
		return fmt.Errorf("cold job %s: %d executions, %d cache hits, want %d and 0", j.id, execs, hits, cells)
	}
	return checkEngines(j)
}

// submitAndFetch submits a dse job, waits for it, fetches and verifies
// its result and receipt, and parses the result's cells.
func submitAndFetch(srv *campaign.Server, base *taskset.Set, axes []dse.Axis, tr *tracer, n, parent int) (job, error) {
	j := job{base: base, axes: axes}
	var err error
	if j.payload, err = jobPayload(base, axes); err != nil {
		return j, err
	}
	sp := tr.begin("campaign.submit", n, parent)
	id, dup, err := srv.Submit(campaign.KindDSE, j.payload)
	tr.end(sp)
	if err != nil {
		return j, fmt.Errorf("submit: %v", err)
	}
	if dup {
		return j, fmt.Errorf("submission deduplicated onto %s: no work was done", id)
	}
	j.id = id
	sp = tr.begin("campaign.run", n, parent)
	done, _ := srv.Done(id)
	timeout := time.NewTimer(jobTimeout)
	select {
	case <-done:
		timeout.Stop()
	case <-timeout.C:
		return j, fmt.Errorf("job %s not done after %v", id, jobTimeout)
	}
	tr.end(sp)
	sp = tr.begin("campaign.fetch", n, parent)
	res, rerr := srv.Result(id)
	rc, cerr := srv.Receipt(id)
	verified := cerr == nil && srv.VerifyReceipt(rc)
	tr.end(sp)
	if rerr != nil {
		return j, rerr
	}
	if cerr != nil {
		return j, cerr
	}
	j.rcpt = rc
	return j, checkJob(&j, res, verified)
}

// checkJob checks a fetched job: receipt signature, result hash, and the
// cell count and framing of the result.
func checkJob(j *job, res []byte, verified bool) error {
	if !verified {
		return fmt.Errorf("job %s: receipt signature does not verify", j.id)
	}
	sum := sha256.Sum256(res)
	if got := hex.EncodeToString(sum[:]); got != j.rcpt.ResultHash {
		return fmt.Errorf("job %s: result sha256 %s, receipt says %s", j.id, got, j.rcpt.ResultHash)
	}
	if j.rcpt.Job != j.id || j.rcpt.Kind != campaign.KindDSE || j.rcpt.Cells != 24 {
		return fmt.Errorf("job %s: receipt for job=%s kind=%s cells=%d", j.id, j.rcpt.Job, j.rcpt.Kind, j.rcpt.Cells)
	}
	var err error
	j.labels, j.cells, err = parseResult(res)
	if err != nil {
		return fmt.Errorf("job %s: %v", j.id, err)
	}
	if len(j.cells) != 24 {
		return fmt.Errorf("job %s: %d distinct cells in the result, want 24", j.id, len(j.cells))
	}
	return nil
}

// parseResult splits an assembled campaign result into its cells:
// a header line, then per cell a "-- cell <i> <label>" line and the
// cell's bytes.
func parseResult(res []byte) ([]string, map[string][]byte, error) {
	header, rest, ok := bytes.Cut(res, []byte("\n"))
	if !ok || !bytes.HasPrefix(header, []byte("simd-result/1 ")) {
		return nil, nil, fmt.Errorf("result has no simd-result/1 header")
	}
	var labels []string
	cells := map[string][]byte{}
	for i := 0; len(rest) > 0; i++ {
		line, body, _ := bytes.Cut(rest, []byte("\n"))
		prefix := fmt.Sprintf("-- cell %d ", i)
		if !bytes.HasPrefix(line, []byte(prefix)) {
			return nil, nil, fmt.Errorf("cell %d: framing line %q", i, line)
		}
		label := string(line[len(prefix):])
		end := bytes.Index(body, []byte("\n-- cell "))
		if end < 0 {
			end = len(body)
		} else {
			end++
		}
		labels = append(labels, label)
		cells[label] = body[:end]
		rest = body[end:]
	}
	return labels, cells, nil
}

// checkEngines requires every goroutine-engine cell to carry the same
// bytes as the rtc-engine cell of the same configuration.
func checkEngines(j job) error {
	for _, l := range j.labels {
		if !strings.Contains(l, "engine=goroutine") {
			continue
		}
		r := strings.Replace(l, "engine=goroutine", "engine=rtc", 1)
		if !bytes.Equal(j.cells[l], j.cells[r]) {
			return fmt.Errorf("job %s: cell %q differs between the goroutine and rtc engines", j.id, strings.Replace(l, "engine=goroutine ", "", 1))
		}
	}
	return nil
}

// probe replays the last op's layers from the benchmark's own code,
// outside the op's timing: each cell's taskset.Run on its engine (the
// server runs them only when cold), PutBytes/GetBytes of the real cell
// bytes into a scratch cache on the same filesystem, the job's journal
// record sequence appended to a scratch event log, and the receipt
// signature.
func (b *campaignBench) probe(n int, tr *tracer) error {
	j := b.last
	if b.probeCache == nil {
		var err error
		if b.probeCache, err = dse.NewCache(filepath.Join(b.root, "probe-cache")); err != nil {
			return err
		}
		if b.probeLog, _, err = eventlog.Open(filepath.Join(b.root, "probe-events.log")); err != nil {
			return err
		}
	}
	keys := make([]string, len(j.labels))
	for i, c := range dse.Grid(j.axes) {
		v, err := applyConfig(j.base, c)
		if err != nil {
			return err
		}
		keys[i] = idempotency.Key("cell:taskset", dse.Canonical(v))
		name := "probe.taskset.run_rtc"
		var bus []*telemetry.Bus
		if v.Engine != "rtc" {
			name = "probe.taskset.run_goroutine"
			bus = append(bus, telemetry.NewCapture().Bus)
		}
		t0 := time.Now()
		_, err = taskset.Run(v, bus...)
		tr.add(name, n, time.Since(t0), 0)
		if err != nil {
			return err
		}
	}
	for i, l := range j.labels {
		t0 := time.Now()
		b.probeCache.PutBytes(keys[i], j.cells[l])
		tr.add("probe.dse.cache_put", n, time.Since(t0), 0)
		t0 = time.Now()
		_, ok := b.probeCache.GetBytes(keys[i])
		tr.add("probe.dse.cache_get", n, time.Since(t0), 0)
		if !ok {
			return fmt.Errorf("probe cache lost %s", keys[i])
		}
	}
	appendRec := func(typ string, data any) error {
		t0 := time.Now()
		err := b.probeLog.Append(typ, data)
		tr.add("probe.eventlog.append", n, time.Since(t0), 0)
		return err
	}
	if err := appendRec(runstate.EvJobAccepted, runstate.JobAccepted{
		ID: j.id, Kind: campaign.KindDSE, Key: j.rcpt.Key, Cells: keys, Payload: j.payload,
	}); err != nil {
		return err
	}
	for i, l := range j.labels {
		if err := appendRec(runstate.EvCellStarted, runstate.CellStarted{Job: j.id, Idx: i}); err != nil {
			return err
		}
		sum := sha256.Sum256(j.cells[l])
		if err := appendRec(runstate.EvCellDone, runstate.CellDone{
			Job: j.id, Idx: i, Hash: hex.EncodeToString(sum[:]), Cached: b.warm,
		}); err != nil {
			return err
		}
	}
	unsigned := j.rcpt
	unsigned.Sig = ""
	t0 := time.Now()
	rc := receipt.Sign(unsigned, []byte("perfbench-probe-key"))
	tr.add("probe.receipt.sign", n, time.Since(t0), 0)
	return appendRec(runstate.EvJobDone, runstate.JobDone{ID: j.id, ResultHash: j.rcpt.ResultHash, Receipt: rc})
}

func (b *campaignBench) cellsPerOp() int { return 24 }

func (b *campaignBench) layers(s spanStats, m map[string]float64) {
	m["campaign.submit_us"] = s.medianDur("campaign.submit", time.Microsecond)
	m["campaign.run_ms"] = s.medianDur("campaign.run", time.Millisecond)
	m["campaign.fetch_us"] = s.medianDur("campaign.fetch", time.Microsecond)
	m["taskset.run_goroutine_us"] = s.medianDur("probe.taskset.run_goroutine", time.Microsecond)
	m["taskset.run_rtc_us"] = s.medianDur("probe.taskset.run_rtc", time.Microsecond)
	m["dse.cache_put_us"] = s.medianDur("probe.dse.cache_put", time.Microsecond)
	m["dse.cache_get_us"] = s.medianDur("probe.dse.cache_get", time.Microsecond)
	m["eventlog.append_us"] = s.medianDur("probe.eventlog.append", time.Microsecond)
	m["receipt.sign_us"] = s.medianDur("probe.receipt.sign", time.Microsecond)

	// Busy time the server's layers spend inside campaign.run, as replayed
	// by the probes: every journal record but job.accepted (which Submit
	// appends), the signature, and then the cells' simulations and cache
	// writes (cold) or cache reads (warm).
	run, _ := s.total("campaign.run")
	appends, _ := s.total("probe.eventlog.append")
	busy := appends * 49 / 50
	layers := []string{"probe.receipt.sign", "probe.dse.cache_get"}
	if !b.warm {
		layers = []string{"probe.receipt.sign", "probe.dse.cache_put", "probe.taskset.run_goroutine", "probe.taskset.run_rtc"}
	}
	for _, name := range layers {
		d, _ := s.total(name)
		busy += d
	}
	if run > 0 {
		m["campaign.unaccounted_frac"] = 1 - float64(busy)/(float64(run)*campaignWorkers)
	}
	if b.ops > 0 {
		m["campaign.executions_per_op"] = float64(b.execs) / float64(b.ops)
	}
	if b.hits+b.misses > 0 {
		m["dse.cache_hit_frac"] = float64(b.hits) / float64(b.hits+b.misses)
	}
	opens := make([]float64, len(b.opens))
	for i, d := range b.opens {
		opens[i] = float64(d) / float64(time.Millisecond)
	}
	m["campaign.replay_ms"] = median(opens)
}

func (b *campaignBench) close() {
	if b.srv != nil {
		b.srv.Close()
	}
	if b.probeLog != nil {
		b.probeLog.Close()
	}
}
