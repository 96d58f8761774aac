package trace

import (
	"sort"

	"repro/internal/sim"
)

// Interval is a half-open time span [Start, End) during which a task or
// behavior was executing (modeled execution, i.e. delay or running state).
type Interval struct {
	Start, End sim.Time
}

// Duration returns End-Start.
func (iv Interval) Duration() sim.Time { return iv.End - iv.Start }

// activeState reports whether an RTOS task state name counts as occupying
// the CPU.
func activeState(s string) bool { return s == "running" || s == "delay" }

// ExecIntervals returns the merged execution intervals of a task or
// behavior: for RTOS tasks, spans in the running/delay states; for
// unscheduled behaviors, SegBegin/SegEnd pairs. Adjacent intervals that
// touch are merged. A still-open interval at the end of the trace is
// closed at the last record's timestamp.
func (r *Recorder) ExecIntervals(task string) []Interval {
	var out []Interval
	var openAt sim.Time
	open := false
	begin := func(at sim.Time) {
		if !open {
			openAt, open = at, true
		}
	}
	end := func(at sim.Time) {
		if open {
			open = false
			if n := len(out); n > 0 && out[n-1].End == openAt {
				out[n-1].End = at // merge touching intervals
				return
			}
			out = append(out, Interval{openAt, at})
		}
	}
	for _, pg := range r.pages {
		for i := range pg {
			rec := &pg[i]
			if rec.Task != task {
				continue
			}
			switch rec.Kind {
			case KindSegBegin:
				begin(rec.At)
			case KindSegEnd:
				end(rec.At)
			case KindTaskState:
				wasActive, isActive := activeState(rec.From), activeState(rec.To)
				switch {
				case !wasActive && isActive:
					begin(rec.At)
				case wasActive && !isActive:
					end(rec.At)
				}
			}
		}
	}
	if open {
		end(r.end)
	}
	return out
}

// Tasks returns the sorted set of task/behavior names appearing in the
// trace.
func (r *Recorder) Tasks() []string {
	set := map[string]bool{}
	for _, pg := range r.pages {
		for i := range pg {
			rec := &pg[i]
			if rec.Task != "" {
				set[rec.Task] = true
			}
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ContextSwitches counts dispatch records that hand the CPU to a task
// different from the last task that ran (the Table 1 metric). Idle gaps do
// not reset the last-ran task.
func (r *Recorder) ContextSwitches() int {
	n := 0
	last := ""
	for _, pg := range r.pages {
		for i := range pg {
			rec := &pg[i]
			if rec.Kind != KindDispatch || rec.To == "-" || rec.To == "" {
				continue
			}
			if last != "" && rec.To != last {
				n++
			}
			last = rec.To
		}
	}
	return n
}

// Latencies pairs each marker labeled from with the next marker labeled to
// that carries the same Arg, returning the time differences in order of
// the from markers. Markers with no matching partner are dropped. This
// computes end-to-end latencies such as the vocoder's transcoding delay
// (from "frame-in" to "frame-out" with Arg = frame number).
func (r *Recorder) Latencies(from, to string) []sim.Time {
	if from == to {
		return nil // every such marker counts as a from-marker; none closes
	}
	// Count the from-markers: an upper bound on the starts, so the tables
	// below are allocated once.
	n := 0
	for _, pg := range r.pages {
		for i := range pg {
			if rec := &pg[i]; rec.Kind == KindMarker && rec.Label == from {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	// Pass 1: the first from-marker per arg opens that arg's start.
	type start struct {
		at, lat sim.Time
		matched bool
	}
	starts := make([]start, 0, n)
	first := make(map[int64]int, n) // arg -> index into starts
	for _, pg := range r.pages {
		for i := range pg {
			rec := &pg[i]
			if rec.Kind != KindMarker || rec.Label != from {
				continue
			}
			if _, ok := first[rec.Arg]; !ok {
				first[rec.Arg] = len(starts)
				starts = append(starts, start{at: rec.At})
			}
		}
	}
	// Pass 2: in record order, the first to-marker of an arg at or after
	// its start closes it.
	matched := 0
	for _, pg := range r.pages {
		for i := range pg {
			rec := &pg[i]
			if rec.Kind != KindMarker || rec.Label != to {
				continue
			}
			k, ok := first[rec.Arg]
			if !ok || starts[k].matched || rec.At < starts[k].at {
				continue
			}
			starts[k].lat, starts[k].matched = rec.At-starts[k].at, true
			matched++
		}
	}
	if matched == 0 {
		return nil
	}
	out := make([]sim.Time, 0, matched)
	for _, s := range starts {
		if s.matched {
			out = append(out, s.lat)
		}
	}
	return out
}

// MarkerTimes returns the timestamps of all markers with the given label.
func (r *Recorder) MarkerTimes(label string) []sim.Time {
	var out []sim.Time
	for _, pg := range r.pages {
		for i := range pg {
			rec := &pg[i]
			if rec.Kind == KindMarker && rec.Label == label {
				out = append(out, rec.At)
			}
		}
	}
	return out
}

// ResponseTimes returns, for a task, the delays between entering the ready
// state and the next transition to running — the dispatch latencies the
// paper's response-time discussion concerns.
func (r *Recorder) ResponseTimes(task string) []sim.Time {
	var out []sim.Time
	var readyAt sim.Time
	ready := false
	for _, pg := range r.pages {
		for i := range pg {
			rec := &pg[i]
			if rec.Kind != KindTaskState || rec.Task != task {
				continue
			}
			switch {
			case rec.To == "ready" && !ready:
				readyAt, ready = rec.At, true
			case rec.To == "running" && ready:
				out = append(out, rec.At-readyAt)
				ready = false
			}
		}
	}
	return out
}

// BusyTime sums the execution intervals of a task.
func (r *Recorder) BusyTime(task string) sim.Time {
	var total sim.Time
	for _, iv := range r.ExecIntervals(task) {
		total += iv.Duration()
	}
	return total
}

// End returns the timestamp of the last record (0 for an empty trace).
func (r *Recorder) End() sim.Time { return r.end }

// Overlap returns the total time during which two tasks' execution
// intervals overlap. In a correctly serialized RTOS model this is zero for
// tasks of the same OS instance; in the unscheduled model it is generally
// positive (paper Figure 8(a) vs 8(b)).
func (r *Recorder) Overlap(a, b string) sim.Time {
	ia, ib := r.ExecIntervals(a), r.ExecIntervals(b)
	var total sim.Time
	i, j := 0, 0
	for i < len(ia) && j < len(ib) {
		lo := maxT(ia[i].Start, ib[j].Start)
		hi := minT(ia[i].End, ib[j].End)
		if hi > lo {
			total += hi - lo
		}
		if ia[i].End < ib[j].End {
			i++
		} else {
			j++
		}
	}
	return total
}

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func minT(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}
