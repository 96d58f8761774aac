package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/rtc"
	"repro/internal/taskset"
)

// sweepAxes is the sweep-rtc design space: 5 policies x 3 personalities x
// 2 time models x 2 quanta = 60 configurations.
var sweepAxes = []dse.Axis{
	{Name: "policy", Values: []string{"fcfs", "rr", "priority", "rm", "edf"}},
	{Name: "personality", Values: []string{"generic", "itron", "osek"}},
	{Name: "timeModel", Values: []string{"coarse", "segmented"}},
	{Name: "quantumUs", Values: []string{"1000", "5000"}},
}

// sweepRTC is one in-process design-space exploration per op: dse.Explore
// over sweepAxes with one worker and a fresh memory-only cache, each
// configuration run on the run-to-completion engine as NewSession ->
// RunUntil -> Finish and checked against the goroutine kernel.
type sweepRTC struct {
	seed      int64
	keys      []string                // Config.Key in grid order
	sets      map[string]*taskset.Set // configuration variants of the seeded set
	workloads map[string]rtc.Workload // the same variants in engine form
	want      map[string]runOutcome   // goroutine-kernel oracle
	wantBest  string
}

// runOutcome is the engine-independent result of one configuration.
type runOutcome struct {
	end   int64
	stats core.Stats
	tasks []taskOutcome
}

type taskOutcome struct {
	name                string
	activations, missed int
	cpu                 int64
}

// equal compares two outcomes without formatting them, so the check adds
// little to the timed op.
func (o runOutcome) equal(p runOutcome) bool {
	if o.end != p.end || o.stats != p.stats || len(o.tasks) != len(p.tasks) {
		return false
	}
	for i := range o.tasks {
		if o.tasks[i] != p.tasks[i] {
			return false
		}
	}
	return true
}

// generate derives the seeded 8-task, U=0.85 set (50 ms horizon) and its
// 60 configuration variants.
func (b *sweepRTC) generate() error {
	base := periodicSet(rngFor(b.seed, "sweep-rtc", 0), 0.85, []float64{5, 5, 10, 10, 20, 25, 25, 50}, 50, "")
	b.keys = nil
	b.sets = map[string]*taskset.Set{}
	b.workloads = map[string]rtc.Workload{}
	for _, c := range dse.Grid(sweepAxes) {
		v, err := applyConfig(base, c)
		if err != nil {
			return err
		}
		b.keys = append(b.keys, c.Key())
		b.sets[c.Key()] = v
		b.workloads[c.Key()] = rtcWorkload(v)
	}
	return nil
}

// prepare computes the goroutine-kernel oracle for every configuration;
// it is not part of set-up time.
func (b *sweepRTC) prepare() error {
	if err := b.generate(); err != nil {
		return err
	}
	b.want = map[string]runOutcome{}
	bestCost := 0.0
	for _, key := range b.keys {
		v := *b.sets[key]
		v.Engine = "goroutine"
		res, err := taskset.Run(&v)
		if err != nil {
			return fmt.Errorf("oracle %s: %v", key, err)
		}
		o := runOutcome{end: int64(res.End), stats: res.Stats}
		missed := 0
		for _, t := range res.Tasks {
			o.tasks = append(o.tasks, taskOutcome{t.Name, t.Activations, t.Missed, int64(t.CPUTime)})
			missed += t.Missed
		}
		b.want[key] = o
		if cost := sweepCost(missed, o.stats); b.wantBest == "" || cost < bestCost {
			b.wantBest, bestCost = key, cost
		}
	}
	return nil
}

// sweepCost ranks configurations: deadline misses first, then context
// switches as the tie-breaker.
func sweepCost(missed int, st core.Stats) float64 {
	return float64(missed)*1e6 + float64(st.ContextSwitches)
}

// setup generates the inputs and runs one checked warm-up sweep.
func (b *sweepRTC) setup() error {
	if err := b.generate(); err != nil {
		return err
	}
	return b.op(-1, nil, -1)
}

func (b *sweepRTC) op(n int, tr *tracer, parent int) error {
	cache, err := dse.NewCache("")
	if err != nil {
		return err
	}
	explore := tr.begin("dse.explore", n, parent)
	eval := func(c dse.Config) (float64, map[string]float64, error) {
		key := c.Key()
		sp := tr.begin("rtc.eval", n, explore)
		defer tr.end(sp)
		w := b.workloads[key]
		s1 := tr.begin("rtc.build", n, sp)
		sess, err := rtc.NewSession(w)
		tr.end(s1)
		if err != nil {
			return 0, nil, err
		}
		s2 := tr.begin("rtc.run", n, sp)
		sess.RunUntil(w.Horizon)
		tr.end(s2)
		s3 := tr.begin("rtc.finish", n, sp)
		res := sess.Finish()
		tr.end(s3)
		tr.work(s2, int64(res.Stats.ContextSwitches))
		got, missed, err := outcomeRTC(res)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %v", key, err)
		}
		if want := b.want[key]; !got.equal(want) {
			return 0, nil, fmt.Errorf("%s: rtc end=%d %+v %v, goroutine end=%d %+v %v",
				key, got.end, got.stats, got.tasks, want.end, want.stats, want.tasks)
		}
		return sweepCost(missed, res.Stats), map[string]float64{"ctxsw": float64(res.Stats.ContextSwitches)}, nil
	}
	points := dse.Explore(sweepAxes, eval, dse.WithJobs(1), dse.WithCache(cache, nil))
	best, err := dse.Best(points)
	tr.end(explore)
	if len(points) != len(b.keys) {
		return fmt.Errorf("explored %d configurations, want %d", len(points), len(b.keys))
	}
	for _, p := range points {
		if p.Err != nil {
			return p.Err
		}
	}
	if err != nil {
		return err
	}
	if best.Config.Key() != b.wantBest {
		return fmt.Errorf("best configuration %s, goroutine kernel ranks %s first", best.Config.Key(), b.wantBest)
	}
	if st := cache.Stats(); st.Misses != len(b.keys) || st.Hits != 0 {
		return fmt.Errorf("fresh cache saw %d hits, %d misses", st.Hits, st.Misses)
	}
	return nil
}

// outcomeRTC extracts the comparable outcome and the total deadline
// misses of an rtc run.
func outcomeRTC(res *rtc.Result) (runOutcome, int, error) {
	if res.Err != nil {
		return runOutcome{}, 0, res.Err
	}
	if res.Conservation != nil {
		return runOutcome{}, 0, res.Conservation
	}
	o := runOutcome{end: int64(res.End), stats: res.Stats, tasks: make([]taskOutcome, len(res.Tasks))}
	missed := 0
	for i, t := range res.Tasks {
		o.tasks[i] = taskOutcome{t.Name, t.Activations, t.Missed, int64(t.CPUTime)}
		missed += t.Missed
	}
	return o, missed, nil
}

// probe counts the engine's heap allocations exactly for one op's worth
// of builds and runs. runtime.ReadMemStats stops the world, so it runs
// here, outside the timed op.
func (b *sweepRTC) probe(n int, tr *tracer) error {
	sessions := make([]*rtc.Session, len(b.keys))
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, key := range b.keys {
		s, err := rtc.NewSession(b.workloads[key])
		if err != nil {
			return err
		}
		sessions[i] = s
	}
	runtime.ReadMemStats(&m1)
	for i, key := range b.keys {
		sessions[i].RunUntil(b.workloads[key].Horizon)
	}
	runtime.ReadMemStats(&m2)
	tr.add("probe.rtc.build_allocs", n, 0, int64(m1.Mallocs-m0.Mallocs))
	tr.add("probe.rtc.run_allocs", n, 0, int64(m2.Mallocs-m1.Mallocs))
	return nil
}

func (b *sweepRTC) cellsPerOp() int { return len(b.keys) }

func (b *sweepRTC) layers(s spanStats, m map[string]float64) {
	m["rtc.build_us"] = s.perOpMedian("rtc.build", time.Microsecond)
	m["rtc.run_us"] = s.perOpMedian("rtc.run", time.Microsecond)
	m["rtc.finish_us"] = s.perOpMedian("rtc.finish", time.Microsecond)
	m["rtc.build_allocs"] = s.medianWork("probe.rtc.build_allocs")
	m["rtc.run_allocs"] = s.medianWork("probe.rtc.run_allocs")
	if d, sw := s.total("rtc.run"); sw > 0 {
		m["rtc.ns_per_switch"] = float64(d.Nanoseconds()) / float64(sw)
	}
	explore, _ := s.total("dse.explore")
	eval, _ := s.total("rtc.eval")
	if ops := len(s.byName["dse.explore"]); ops > 0 {
		m["dse.explore_self_us"] = float64((explore - eval).Microseconds()) / float64(ops)
	}
}

func (b *sweepRTC) close() {}
