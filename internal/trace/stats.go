package trace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/sim"
)

// Mean returns the arithmetic mean of the samples (0 for none).
func Mean(xs []sim.Time) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	var sum sim.Time
	for _, x := range xs {
		sum += x
	}
	return sum / sim.Time(len(xs))
}

// MinMax returns the smallest and largest sample (0,0 for none).
func MinMax(xs []sim.Time) (min, max sim.Time) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1, clamped) of the samples
// by the nearest-rank method on a sorted copy: the smallest sample with
// at least a p fraction of the population at or below it, rank ceil(p·n)
// (1-based), and 0 for no samples. Any percentile of a single sample is
// that sample, and p99 of two samples is the larger one. The epsilon
// keeps ceil from lifting an exact product represented as
// 198.00000000000003 to 199.
func Percentile(xs []sim.Time, p float64) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]sim.Time(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TaskSummary aggregates one task's trace activity.
type TaskSummary struct {
	Task        string
	Busy        sim.Time
	BusyPct     float64 // of the trace span
	Segments    int     // execution intervals
	MeanResp    sim.Time
	MaxResp     sim.Time
	Dispatches  int
	Preemptions int // transitions running -> ready
}

// Summarize computes per-task summaries over the whole trace.
func (r *Recorder) Summarize() []TaskSummary {
	span := r.End()
	running, ready := r.lookup("running"), r.lookup("ready")
	var out []TaskSummary
	for _, task := range r.Tasks() {
		k := r.lookup(task)
		ivs := r.ExecIntervals(task)
		var busy sim.Time
		for _, iv := range ivs {
			busy += iv.Duration()
		}
		resp := r.ResponseTimes(task)
		_, maxResp := MinMax(resp)
		s := TaskSummary{
			Task:     task,
			Busy:     busy,
			Segments: len(ivs),
			MeanResp: Mean(resp),
			MaxResp:  maxResp,
		}
		if span > 0 {
			s.BusyPct = 100 * float64(busy) / float64(span)
		}
		for _, pg := range r.pages {
			for i := range pg {
				e := &pg[i]
				switch e.kind() {
				case KindDispatch:
					if e.to == k {
						s.Dispatches++
					}
				case KindTaskState:
					if e.task == k && e.from == running && e.to == ready {
						s.Preemptions++
					}
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// Report writes a per-task summary table followed by the global counters —
// the textual companion to the Gantt chart.
func (r *Recorder) Report(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-14s %12s %7s %6s %12s %12s %6s %6s\n",
		"task", "busy", "busy%", "segs", "meanResp", "maxResp", "disp", "preempt"); err != nil {
		return err
	}
	for _, s := range r.Summarize() {
		if _, err := fmt.Fprintf(w, "%-14s %12v %6.1f%% %6d %12v %12v %6d %6d\n",
			s.Task, s.Busy, s.BusyPct, s.Segments, s.MeanResp, s.MaxResp,
			s.Dispatches, s.Preemptions); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\nspan %v, context switches %d, records %d\n",
		r.End(), r.ContextSwitches(), r.Len())
	return err
}
