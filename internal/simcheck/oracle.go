package simcheck

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/runner"
	"repro/internal/sim"
)

// Failure ties the violations observed for one scenario/config pair
// together (the unit cmd/simfuzz shrinks and reports).
type Failure struct {
	Config     Config
	Violations []Violation
}

func (f Failure) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "config %s:", f.Config)
	for _, v := range f.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// Check runs the scenario across the whole configuration matrix and
// returns every invariant and oracle violation found. Each config is run
// twice to enforce the replay-determinism oracle; coarse/segmented
// siblings of the same policy are compared by the differential oracle;
// all-periodic sets additionally face the response-time-analysis bound.
// The matrix points run concurrently on all CPUs; use CheckJobs to bound
// the worker count (e.g. when the caller already parallelizes across
// scenarios, as cmd/simfuzz -jobs does).
func Check(s *Scenario) []Failure { return CheckJobs(s, runtime.NumCPU()) }

// CheckJobs is Check with an explicit worker count (1 = sequential). The
// returned failures are in matrix order regardless of the worker count:
// each configuration's runs are independent kernels and the results are
// collected in submission order.
func CheckJobs(s *Scenario, jobs int) []Failure {
	cfgs := Matrix(s)
	type pair struct{ r1, r2, rtc, ck *RunResult }
	runs := runner.Map(len(cfgs), runner.Options{Jobs: jobs}, func(i int) (pair, error) {
		p := pair{r1: safeRun(s, cfgs[i]), r2: safeRun(s, cfgs[i])}
		if cfgs[i].CPUs == 1 {
			rcfg := cfgs[i]
			rcfg.Engine = "rtc"
			p.rtc = safeRun(s, rcfg)
			// Checkpoint-equivalence oracle: snapshot the rtc session at a
			// seed-derived instant, restore, run to the horizon.
			ckCfg := rcfg
			ckCfg.CheckpointAt = CheckpointInstant(s.Seed, cfgs[i], s.Horizon())
			p.ck = safeRun(s, ckCfg)
		}
		return p, nil
	})
	var fails []Failure
	byKey := map[string]*RunResult{}
	for i, cfg := range cfgs {
		r1, r2 := runs[i].Value.r1, runs[i].Value.r2
		vs := CheckRun(s, r1)
		if !bytes.Equal(r1.Trace, r2.Trace) {
			vs = append(vs, Violation{Kind: "determinism", At: r1.End,
				Msg: fmt.Sprintf("two runs of seed %d under %s produced different traces (%d vs %d bytes)",
					s.Seed, cfg, len(r1.Trace), len(r2.Trace))})
		}
		// Engine-differential oracle: the run-to-completion engine must be
		// byte-identical to the goroutine kernel on every uniprocessor
		// config — trace, statistics, end time, per-task outcomes,
		// telemetry stream, and the diagnosis verdict.
		if rr := runs[i].Value.rtc; rr != nil {
			if (rr.Err == nil) != (r1.Err == nil) {
				vs = append(vs, Violation{Kind: "engine", At: r1.End,
					Msg: fmt.Sprintf("rtc engine err=%v but goroutine kernel err=%v under %s", rr.Err, r1.Err, cfg)})
			} else if !bytes.Equal(rr.Trace, r1.Trace) {
				vs = append(vs, Violation{Kind: "engine", At: r1.End,
					Msg: fmt.Sprintf("rtc engine trace diverges from goroutine kernel under %s (%d vs %d bytes)",
						cfg, len(rr.Trace), len(r1.Trace))})
			} else if !slices.Equal(rr.Stream, r1.Stream) {
				vs = append(vs, Violation{Kind: "engine", At: r1.End,
					Msg: fmt.Sprintf("rtc engine telemetry stream diverges from goroutine kernel under %s (%d vs %d events)",
						cfg, len(rr.Stream), len(r1.Stream))})
			}
			if (rr.Diag == nil) != (r1.Diag == nil) {
				vs = append(vs, Violation{Kind: "engine", At: r1.End,
					Msg: fmt.Sprintf("rtc engine diagnosis=%v but goroutine kernel diagnosis=%v under %s",
						rr.Diag, r1.Diag, cfg)})
			}
		}
		// Checkpoint-equivalence oracle: an rtc run that was snapshotted at
		// an arbitrary instant and restored into a fresh session must be
		// byte-identical — trace, stats, outcomes — to the uninterrupted
		// run. Checked against the goroutine baseline (the engine oracle
		// above already pins rtc == goroutine).
		if ck := runs[i].Value.ck; ck != nil {
			if (ck.Err == nil) != (r1.Err == nil) {
				vs = append(vs, Violation{Kind: "checkpoint", At: r1.End,
					Msg: fmt.Sprintf("checkpointed run (%s) err=%v but uninterrupted run err=%v",
						ck.Config, ck.Err, r1.Err)})
			} else if !bytes.Equal(ck.Trace, r1.Trace) {
				vs = append(vs, Violation{Kind: "checkpoint", At: r1.End,
					Msg: fmt.Sprintf("checkpointed run (%s) trace diverges from uninterrupted run (%d vs %d bytes)",
						ck.Config, len(ck.Trace), len(r1.Trace))})
			}
		}
		vs = append(vs, checkRTA(s, r1)...)
		byKey[cfg.String()] = r1
		if len(vs) > 0 {
			fails = append(fails, Failure{Config: cfg, Violations: vs})
		}
	}
	// Differential oracle: the time model changes when work happens, never
	// how much of it there is. Pair each coarse run with its segmented
	// sibling and compare drained totals.
	for _, cfg := range cfgs {
		if cfg.TimeModel != "coarse" {
			continue
		}
		seg := cfg
		seg.TimeModel = "segmented"
		if vs := diffRuns(byKey[cfg.String()], byKey[seg.String()]); len(vs) > 0 {
			fails = append(fails, Failure{Config: cfg, Violations: vs})
		}
	}
	// Cross-personality oracle: a personality changes kernel API semantics
	// (channel grant order, wakeup bookkeeping), never the modeled work.
	// Pair each itron/osek run with its generic sibling and compare the
	// completion set, activation counts and per-task CPU time. Response
	// times and deadline misses are NOT compared — grant order legitimately
	// shifts when blocked tasks run.
	for _, cfg := range cfgs {
		if cfg.CPUs != 1 || cfg.Personality == "" {
			continue
		}
		gen := cfg
		gen.Personality = ""
		if vs := diffPersonalities(byKey[gen.String()], byKey[cfg.String()]); len(vs) > 0 {
			fails = append(fails, Failure{Config: cfg, Violations: vs})
		}
	}
	return fails
}

// safeRun converts a panic on the caller's goroutine (builder bugs,
// bad policy names) into a run error instead of killing a soak run.
func safeRun(s *Scenario, cfg Config) (res *RunResult) {
	defer func() {
		if r := recover(); r != nil {
			res = &RunResult{Config: cfg, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return Run(s, cfg)
}

// diffRuns compares the coarse and segmented runs of one policy: with the
// horizon draining the full workload in every interleaving, total busy
// time, per-task CPU time, activation counts and the completion set must
// all agree between the two time models.
func diffRuns(coarse, segmented *RunResult) []Violation {
	if coarse == nil || segmented == nil || coarse.Err != nil || segmented.Err != nil {
		return nil // run errors are already reported per config
	}
	var vs []Violation
	add := func(format string, args ...interface{}) {
		vs = append(vs, Violation{Kind: "differential", Msg: fmt.Sprintf(format, args...)})
	}
	busyC, busyS := coarse.Stats.BusyTime, segmented.Stats.BusyTime
	if busyC != busyS {
		add("%s busy time %v != %s busy time %v", coarse.Config, busyC, segmented.Config, busyS)
	}
	if len(coarse.Tasks) != len(segmented.Tasks) {
		add("task count %d != %d", len(coarse.Tasks), len(segmented.Tasks))
		return vs
	}
	for i := range coarse.Tasks {
		c, g := coarse.Tasks[i], segmented.Tasks[i]
		if c.Terminated != g.Terminated {
			add("task %s terminated=%v coarse but %v segmented", c.Name, c.Terminated, g.Terminated)
		}
		if c.Activations != g.Activations {
			add("task %s ran %d activations coarse but %d segmented", c.Name, c.Activations, g.Activations)
		}
		if c.CPUTime != g.CPUTime {
			add("task %s consumed %v CPU coarse but %v segmented", c.Name, c.CPUTime, g.CPUTime)
		}
	}
	return vs
}

// diffPersonalities compares one itron/osek run against its generic
// sibling (same policy, time model, PE): with the horizon draining the
// whole workload, the personalities must agree on which tasks completed,
// how many activations each ran and how much CPU each consumed — the
// busy-time totals follow. A divergence means a personality kernel lost
// or duplicated work (a dropped wakeup, a double grant), not merely
// reordered it.
func diffPersonalities(generic, native *RunResult) []Violation {
	if generic == nil || native == nil || generic.Err != nil || native.Err != nil {
		return nil // run errors are already reported per config
	}
	var vs []Violation
	add := func(format string, args ...interface{}) {
		vs = append(vs, Violation{Kind: "personality", Msg: fmt.Sprintf(format, args...)})
	}
	if generic.Stats.BusyTime != native.Stats.BusyTime {
		add("%s busy time %v != %s busy time %v",
			generic.Config, generic.Stats.BusyTime, native.Config, native.Stats.BusyTime)
	}
	if len(generic.Tasks) != len(native.Tasks) {
		add("task count %d != %d", len(generic.Tasks), len(native.Tasks))
		return vs
	}
	for i := range generic.Tasks {
		g, n := generic.Tasks[i], native.Tasks[i]
		if g.Terminated != n.Terminated {
			add("task %s terminated=%v generic but %v under %s", g.Name, g.Terminated, n.Terminated, native.Config.Personality)
		}
		if g.Activations != n.Activations {
			add("task %s ran %d activations generic but %d under %s", g.Name, g.Activations, n.Activations, native.Config.Personality)
		}
		if g.CPUTime != n.CPUTime {
			add("task %s consumed %v CPU generic but %v under %s", g.Name, g.CPUTime, n.CPUTime, native.Config.Personality)
		}
	}
	return vs
}

// checkRTA asserts the response-time-analysis oracle on all-periodic,
// single-PE, fixed-priority runs: if classic RTA
//
//	R_i = C_i + B_i + sum_{j in hp(i)} min(ceil(R_i/T_j), N_j) * C_j
//
// converges with R_i <= T_i, the observed worst response must not exceed
// R_i and the task must not miss deadlines. N_j caps task j's jobs at its
// cycle count: a window never holds more of its releases. B_i is zero
// under the segmented (fully preemptive) model; under the coarse model
// every delay segment runs to completion, so B_i is the longest single
// segment of any lower-priority task (non-preemptive chunk blocking).
//
// The single-job fixpoint is only sound when the synchronous-release
// (critical instant) job is the worst of its level-i active period; with
// deferred preemption a later job can be worse (self-pushing). The bound
// is therefore only asserted when the level-i active period
//
//	L_i = B_i + sum_{j in hp(i) + {i}} min(ceil(L_i/T_j), N_j) * C_j
//
// also converges within T_i, which limits the active period to a single
// job of task i.
//
// Under the segmented model the bound is also reached. Every task is
// released at 0 (the generator sets no offsets on periodic tasks),
// priorities are distinct and a switch costs nothing, so the first job
// of task i is released at the critical instant and, by the
// critical-instant theorem, completes exactly at R_i, the worst response
// of any of its jobs. The observed worst response must then equal R_i: a
// task that finishes early is a scheduling or accounting fault too.
func checkRTA(s *Scenario, res *RunResult) []Violation {
	if res.Err != nil || res.Config.CPUs != 1 || !s.AllPeriodic() {
		return nil
	}
	if res.Config.Policy != "priority" && res.Config.Policy != "rm" {
		return nil
	}
	prios, ok := effectivePrios(s, res.Config)
	if !ok {
		return nil
	}
	var vs []Violation
	for i := range s.Tasks {
		ti := &s.Tasks[i]
		C := ti.Work() / sim.Time(ti.Cycles)
		T := ti.Period
		var B sim.Time
		if !res.Config.Segmented() {
			for j := range s.Tasks {
				if prios[s.Tasks[j].Name] <= prios[ti.Name] {
					continue
				}
				for _, seg := range s.Tasks[j].Segments {
					if seg > B {
						B = seg
					}
				}
			}
		}
		var hp []int
		for j := range s.Tasks {
			if prios[s.Tasks[j].Name] < prios[ti.Name] {
				hp = append(hp, j)
			}
		}
		demand := func(window sim.Time, t *TaskSpec) sim.Time {
			jobs := min(ceilDiv(window, t.Period), sim.Time(t.Cycles))
			return jobs * (t.Work() / sim.Time(t.Cycles))
		}
		interference := func(window sim.Time, includeSelf bool) sim.Time {
			w := B
			for _, j := range hp {
				w += demand(window, &s.Tasks[j])
			}
			if includeSelf {
				w += demand(window, ti)
			}
			return w
		}
		R, converged := fixpoint(C+B, T, func(r sim.Time) sim.Time { return C + interference(r, false) })
		if !converged {
			continue
		}
		if _, oneJob := fixpoint(C+B, T, func(l sim.Time) sim.Time { return interference(l, true) }); !oneJob {
			continue
		}
		out := res.Tasks[i]
		if out.MaxResp > R {
			vs = append(vs, Violation{Kind: "rta", At: res.End,
				Msg: fmt.Sprintf("task %s observed response %v exceeds analytic bound %v (C=%v B=%v T=%v, %s)",
					ti.Name, out.MaxResp, R, C, B, T, res.Config)})
		} else if out.MaxResp < R && res.Config.Segmented() {
			vs = append(vs, Violation{Kind: "rta", At: res.End,
				Msg: fmt.Sprintf("task %s observed response %v short of the exact response %v (C=%v T=%v, %s)",
					ti.Name, out.MaxResp, R, C, T, res.Config)})
		}
		if out.Missed > 0 {
			vs = append(vs, Violation{Kind: "rta", At: res.End,
				Msg: fmt.Sprintf("task %s missed %d deadlines but RTA bounds its response at %v <= period %v",
					ti.Name, out.Missed, R, T)})
		}
	}
	return vs
}

// fixpoint iterates x = f(x) from x0 upward, reporting convergence only
// if the fixed point stays within limit.
func fixpoint(x0, limit sim.Time, f func(sim.Time) sim.Time) (sim.Time, bool) {
	x := x0
	for iter := 0; iter < 1000; iter++ {
		next := f(x)
		if next == x {
			return x, x <= limit
		}
		if next > limit {
			return next, false
		}
		x = next
	}
	return x, false
}

func ceilDiv(a, b sim.Time) sim.Time { return (a + b - 1) / b }
