package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/taskset"
	"repro/internal/workload"
)

// rngFor derives an independent generator for one input of a run from
// the run's seed and a stream label, so every generated task set is a
// pure function of (--seed, label).
func rngFor(seed int64, stream string, n int) *workload.RNG {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h := uint64(14695981039346656037) // FNV-1a over seed, stream and n
	for _, c := range append(append(b[:], stream...), byte(n), byte(n>>8), byte(n>>16), byte(n>>24)) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return workload.NewRNG(h)
}

// periodicSet generates a periodic set with one task per entry of
// periodsMs and total utilization u: the seed shuffles the periods over
// the tasks and splits u among them (UUniFast). The period multiset is
// fixed, so every seed releases the same number of jobs and the work per
// op varies little from seed to seed. WCETs are whole microseconds and
// priorities rate-monotonic (shorter period = smaller number = higher
// priority). Task names carry prefix, so sets generated for different ops
// never share a canonical form.
func periodicSet(rng *workload.RNG, u float64, periodsMs []float64, horizonMs float64, prefix string) *taskset.Set {
	n := len(periodsMs)
	periods := append([]float64(nil), periodsMs...)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		periods[i], periods[j] = periods[j], periods[i]
	}
	utils := workload.UUniFast(rng, n, u)
	s := &taskset.Set{Policy: "priority", QuantumUs: 1000, HorizonMs: horizonMs}
	for i, p := range periods {
		period := p * 1000
		wcet := math.Max(1, math.Round(period*utils[i]))
		s.Tasks = append(s.Tasks, taskset.Task{
			Name:     fmt.Sprintf("%st%d", prefix, i),
			Type:     "periodic",
			PeriodUs: period,
			WcetUs:   math.Min(wcet, period),
		})
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Tasks[idx[a]].PeriodUs < s.Tasks[idx[b]].PeriodUs })
	for rank, i := range idx {
		s.Tasks[i].Prio = rank + 1
	}
	return s
}

// applyConfig returns a copy of base with a sweep configuration's knobs
// applied (the campaign server applies its dse axes the same way).
func applyConfig(base *taskset.Set, c dse.Config) (*taskset.Set, error) {
	v := *base
	for name, val := range c {
		switch name {
		case "policy":
			v.Policy = val
		case "personality":
			v.Personality = val
		case "timeModel":
			v.TimeModel = val
		case "engine":
			v.Engine = val
		case "quantumUs":
			if _, err := fmt.Sscanf(val, "%g", &v.QuantumUs); err != nil {
				return nil, fmt.Errorf("quantumUs %q: %v", val, err)
			}
		case "horizonMs":
			if _, err := fmt.Sscanf(val, "%g", &v.HorizonMs); err != nil {
				return nil, fmt.Errorf("horizonMs %q: %v", val, err)
			}
		default:
			return nil, fmt.Errorf("unknown axis %q", name)
		}
	}
	return &v, v.Validate()
}

// rtcWorkload converts a uniprocessor periodic task set into the
// run-to-completion engine's workload form, the same mapping taskset.Run
// uses for engine "rtc" but without trace recording: the sweep compares
// statistics, not traces.
func rtcWorkload(s *taskset.Set) rtc.Workload {
	quantum := sim.Time(s.QuantumUs * 1000)
	if quantum == 0 {
		quantum = sim.Millisecond
	}
	tm := core.TimeModelCoarse
	if s.TimeModel == "segmented" {
		tm = core.TimeModelSegmented
	}
	w := rtc.Workload{
		Name:        "PE",
		Policy:      s.Policy,
		Quantum:     quantum,
		TimeModel:   tm,
		Personality: s.Personality,
		Horizon:     sim.Time(s.HorizonMs * 1e6),
	}
	for _, t := range s.Tasks {
		w.Tasks = append(w.Tasks, rtc.TaskDef{
			Name:     t.Name,
			Type:     "periodic",
			Prio:     t.Prio,
			Period:   sim.Time(t.PeriodUs * 1000),
			Cycles:   t.Cycles,
			Segments: []sim.Time{sim.Time(t.WcetUs * 1000)},
		})
	}
	return w
}
