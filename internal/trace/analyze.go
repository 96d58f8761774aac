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

// ExecIntervals returns the merged execution intervals of a task or
// behavior: for RTOS tasks, spans in the running/delay states; for
// unscheduled behaviors, SegBegin/SegEnd pairs. Adjacent intervals that
// touch are merged. A still-open interval at the end of the trace is
// closed at the last record's timestamp.
func (r *Recorder) ExecIntervals(task string) []Interval {
	k := r.lookup(task)
	if k == noSym {
		return nil
	}
	// The RTOS task states that count as occupying the CPU.
	running, delay := r.lookup("running"), r.lookup("delay")
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
			e := &pg[i]
			if e.task != k {
				continue
			}
			switch e.kind() {
			case KindSegBegin:
				begin(e.at)
			case KindSegEnd:
				end(e.at)
			case KindTaskState:
				wasActive := e.from == running || e.from == delay
				isActive := e.to == running || e.to == delay
				switch {
				case !wasActive && isActive:
					begin(e.at)
				case wasActive && !isActive:
					end(e.at)
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
	seen := make([]bool, len(r.strs))
	names := []string{}
	for _, pg := range r.pages {
		for i := range pg {
			if k := pg[i].task; k != 0 && !seen[k] {
				seen[k] = true
				names = append(names, r.strs[k])
			}
		}
	}
	sort.Strings(names)
	return names
}

// ContextSwitches counts dispatch records that hand the CPU to a task
// different from the last task that ran (the Table 1 metric). Idle gaps do
// not reset the last-ran task.
func (r *Recorder) ContextSwitches() int {
	idle := r.lookup("-")
	n := 0
	last := sym(0) // ""
	for _, pg := range r.pages {
		for i := range pg {
			e := &pg[i]
			if e.kind() != KindDispatch || e.to == idle || e.to == 0 {
				continue
			}
			if last != 0 && e.to != last {
				n++
			}
			last = e.to
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
	fk, tk := r.lookup(from), r.lookup(to)
	if fk == noSym || tk == noSym {
		return nil
	}
	isFrom, isTo := kindLabel(KindMarker, fk), kindLabel(KindMarker, tk)
	// Count the from-markers: an upper bound on the starts, so the tables
	// below are allocated once.
	n := 0
	for _, pg := range r.pages {
		for i := range pg {
			if pg[i].kl == isFrom {
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
			e := &pg[i]
			if e.kl != isFrom {
				continue
			}
			if _, ok := first[e.arg]; !ok {
				first[e.arg] = len(starts)
				starts = append(starts, start{at: e.at})
			}
		}
	}
	// Pass 2: in record order, the first to-marker of an arg at or after
	// its start closes it.
	matched := 0
	for _, pg := range r.pages {
		for i := range pg {
			e := &pg[i]
			if e.kl != isTo {
				continue
			}
			k, ok := first[e.arg]
			if !ok || starts[k].matched || e.at < starts[k].at {
				continue
			}
			starts[k].lat, starts[k].matched = e.at-starts[k].at, true
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
	k := r.lookup(label)
	if k == noSym {
		return nil
	}
	want := kindLabel(KindMarker, k)
	var out []sim.Time
	for _, pg := range r.pages {
		for i := range pg {
			if e := &pg[i]; e.kl == want {
				out = append(out, e.at)
			}
		}
	}
	return out
}

// ResponseTimes returns, for a task, the delays between entering the ready
// state and the next transition to running — the dispatch latencies the
// paper's response-time discussion concerns.
func (r *Recorder) ResponseTimes(task string) []sim.Time {
	k := r.lookup(task)
	if k == noSym {
		return nil
	}
	readySym, running := r.lookup("ready"), r.lookup("running")
	var out []sim.Time
	var readyAt sim.Time
	ready := false
	for _, pg := range r.pages {
		for i := range pg {
			e := &pg[i]
			if e.kind() != KindTaskState || e.task != k {
				continue
			}
			switch {
			case e.to == readySym && !ready:
				readyAt, ready = e.at, true
			case e.to == running && ready:
				out = append(out, e.at-readyAt)
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
