package simcheck

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Violation is one invariant or oracle breach observed on a run.
type Violation struct {
	Kind string   // invariant/oracle identifier
	At   sim.Time // trace position (0 if not time-located)
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] at %v: %s", v.Kind, v.At, v.Msg)
}

// CheckRun verifies all structural invariants of a single run.
func CheckRun(s *Scenario, res *RunResult) []Violation {
	var vs []Violation
	if res.Diag != nil {
		// Scenarios are deadlock-free by construction (Validate), so the
		// runtime-diagnosis layer must stay silent on every one of them.
		vs = append(vs, Violation{Kind: "diagnosis", At: res.Diag.At,
			Msg: fmt.Sprintf("false-positive runtime diagnosis on a deadlock-free scenario: %v", res.Diag)})
	}
	if res.Err != nil {
		return append(vs, Violation{Kind: "run-error", At: res.End, Msg: res.Err.Error()})
	}
	if res.Config.CPUs > 1 {
		vs = checkSMPEvents(res)
	} else {
		vs = checkSingleTrace(s, res)
	}
	vs = append(vs, checkCompletion(s, res)...)
	return vs
}

// checkSingleTrace replays the record stream of a single-PE run and
// checks timestamp monotonicity, mutual exclusion of the CPU, IRQ
// enter/return balance, the no-priority-inversion property (with the
// coarse model's delay-granularity exception) and time conservation.
func checkSingleTrace(s *Scenario, res *RunResult) []Violation {
	var vs []Violation
	add := func(kind string, at sim.Time, format string, args ...interface{}) {
		vs = append(vs, Violation{Kind: kind, At: at, Msg: fmt.Sprintf(format, args...)})
	}

	prios, prioKnown := effectivePrios(s, res.Config)
	active := func(st string) bool { return st == "running" || st == "delay" }

	state := map[string]string{}
	readySince := map[string]sim.Time{}
	delayStart := map[string]sim.Time{}
	irqDepth := map[string]int{}
	var prevAt sim.Time

	runningTask := func() string {
		for name, st := range state {
			if active(st) {
				return name
			}
		}
		return ""
	}

	step := func(rec trace.Record) {
		if rec.At < prevAt {
			add("monotone-time", rec.At, "record at %v after %v: %s", rec.At, prevAt, rec)
		}
		// Time advanced: judge the elapsed interval against the state that
		// held throughout it.
		if rec.At > prevAt && prioKnown {
			if r := runningTask(); r != "" {
				for h, st := range state {
					if st != "ready" || prios[h] >= prios[r] {
						continue
					}
					// Coarse-model exception (paper Section 4.3): a delay
					// annotation runs to its end even if a higher-priority
					// task became ready after the delay began (t4 -> t4').
					coarseWindow := !res.Config.Segmented() &&
						state[r] == "delay" && delayStart[r] <= readySince[h]
					if !coarseWindow {
						add("priority-inversion", prevAt,
							"task %s (prio %d) ready since %v while %s (prio %d, state %s) kept the CPU through %v..%v",
							h, prios[h], readySince[h], r, prios[r], state[r], prevAt, rec.At)
					}
				}
			}
		}
		prevAt = rec.At

		switch rec.Kind {
		case trace.KindTaskState:
			state[rec.Task] = rec.To
			switch rec.To {
			case "ready":
				readySince[rec.Task] = rec.At
			case "delay":
				delayStart[rec.Task] = rec.At
			}
			n := 0
			for _, st := range state {
				if active(st) {
					n++
				}
			}
			if n > 1 {
				add("single-running", rec.At, "%d tasks active on one PE after %s", n, rec)
			}
		case trace.KindIRQ:
			if rec.Arg == 1 {
				irqDepth[rec.Label]++
				if irqDepth[rec.Label] > 1 {
					add("irq-balance", rec.At, "nested enter of irq %s", rec.Label)
				}
			} else {
				irqDepth[rec.Label]--
				if irqDepth[rec.Label] < 0 {
					add("irq-balance", rec.At, "return without enter of irq %s", rec.Label)
				}
			}
		}
	}
	if res.Recorder != nil {
		res.Recorder.Each(step)
	}
	for name, d := range irqDepth {
		if d != 0 {
			add("irq-balance", prevAt, "irq %s ends with depth %d", name, d)
		}
	}
	if res.conservation != nil {
		add("time-conservation", res.End, "%v", res.conservation)
	}
	return vs
}

// checkSMPEvents verifies the global scheduler's occupancy invariants: at
// most one task per CPU slot, no task on two CPUs, monotone timestamps,
// and — once all tasks have drained — agreement between the summed slot
// occupancy and the scheduler's busy-time counter.
func checkSMPEvents(res *RunResult) []Violation {
	var vs []Violation
	add := func(kind string, at sim.Time, format string, args ...interface{}) {
		vs = append(vs, Violation{Kind: kind, At: at, Msg: fmt.Sprintf(format, args...)})
	}
	slot := make(map[int]string)    // cpu -> task
	on := make(map[string]int)      // task -> cpu
	since := make(map[int]sim.Time) // cpu -> dispatch time
	var occupancy sim.Time
	var prevAt sim.Time
	for _, e := range res.Events {
		if e.At < prevAt {
			add("monotone-time", e.At, "event at %v after %v: %s", e.At, prevAt, e)
		}
		prevAt = e.At
		if e.CPU < 0 || e.CPU >= res.Config.CPUs {
			add("cpu-range", e.At, "event on cpu %d of %d: %s", e.CPU, res.Config.CPUs, e)
			continue
		}
		if e.Release {
			if slot[e.CPU] != e.Task {
				add("occupancy", e.At, "release of %s from cpu %d occupied by %q", e.Task, e.CPU, slot[e.CPU])
			} else {
				occupancy += e.At - since[e.CPU]
			}
			delete(slot, e.CPU)
			delete(on, e.Task)
		} else {
			if prev, busy := slot[e.CPU]; busy {
				add("occupancy", e.At, "dispatch of %s into cpu %d occupied by %s", e.Task, e.CPU, prev)
			}
			if cpu, running := on[e.Task]; running {
				add("occupancy", e.At, "task %s dispatched on cpu %d while on cpu %d", e.Task, e.CPU, cpu)
			}
			slot[e.CPU] = e.Task
			on[e.Task] = e.CPU
			since[e.CPU] = e.At
		}
	}
	allDone := true
	for _, t := range res.Tasks {
		if !t.Terminated {
			allDone = false
		}
	}
	if allDone {
		if len(slot) != 0 {
			add("occupancy", prevAt, "%d CPU slots still occupied after all tasks terminated", len(slot))
		} else if occupancy != res.Stats.BusyTime {
			add("busy-accounting", prevAt, "summed slot occupancy %v != scheduler busy time %v",
				occupancy, res.Stats.BusyTime)
		}
	}
	return vs
}

// checkCompletion verifies that the horizon drained the whole workload —
// every task terminated with the expected activation count — and that the
// scheduler's busy-time counter equals the summed per-task CPU time.
func checkCompletion(s *Scenario, res *RunResult) []Violation {
	var vs []Violation
	allDone := true
	var cpuSum sim.Time
	for _, t := range res.Tasks {
		spec := &s.Tasks[t.Index]
		cpuSum += t.CPUTime
		if !t.Terminated {
			allDone = false
			vs = append(vs, Violation{Kind: "completion", At: res.End,
				Msg: fmt.Sprintf("task %s not terminated by horizon %v", t.Name, s.Horizon())})
			continue
		}
		want := 1
		if spec.Type == "periodic" {
			want = spec.Cycles
		}
		if t.Activations != want {
			vs = append(vs, Violation{Kind: "completion", At: res.End,
				Msg: fmt.Sprintf("task %s completed %d activations, want %d", t.Name, t.Activations, want)})
		}
		if t.CPUTime != spec.Work() {
			vs = append(vs, Violation{Kind: "completion", At: res.End,
				Msg: fmt.Sprintf("task %s consumed %v CPU time, want %v", t.Name, t.CPUTime, spec.Work())})
		}
	}
	if allDone {
		if busy := res.Stats.BusyTime; busy != cpuSum {
			vs = append(vs, Violation{Kind: "busy-accounting", At: res.End,
				Msg: fmt.Sprintf("scheduler busy time %v != summed task CPU time %v", busy, cpuSum)})
		}
	}
	return vs
}

// effectivePrios returns the static priority of every task under the
// config's policy (smaller = higher), or ok=false for policies whose
// dispatch order is not a static priority (fcfs, edf, g-edf).
// Rate-monotonic priorities mirror core's Start-time derivation: periodic
// tasks ranked by period (stable), aperiodic tasks below all periodic
// ones in declared-priority order.
func effectivePrios(s *Scenario, cfg Config) (map[string]int, bool) {
	switch cfg.Policy {
	case "priority", "rr", "g-fp":
		m := make(map[string]int, len(s.Tasks))
		for i := range s.Tasks {
			m[s.Tasks[i].Name] = s.Tasks[i].Prio
		}
		return m, true
	case "rm":
		var periodic, aperiodic []int
		for i := range s.Tasks {
			if s.Tasks[i].Type == "periodic" {
				periodic = append(periodic, i)
			} else {
				aperiodic = append(aperiodic, i)
			}
		}
		sort.SliceStable(periodic, func(a, b int) bool {
			return s.Tasks[periodic[a]].Period < s.Tasks[periodic[b]].Period
		})
		sort.SliceStable(aperiodic, func(a, b int) bool {
			return s.Tasks[aperiodic[a]].Prio < s.Tasks[aperiodic[b]].Prio
		})
		m := make(map[string]int, len(s.Tasks))
		p := 0
		for _, i := range periodic {
			m[s.Tasks[i].Name] = p
			p++
		}
		for _, i := range aperiodic {
			m[s.Tasks[i].Name] = p
			p++
		}
		return m, true
	default:
		return nil, false
	}
}
