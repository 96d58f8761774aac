package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// Aggregator is a Sink that folds the event stream into per-PE and
// per-task scheduling metrics. Every counter it reports is derived from
// events alone — never read back from core.Stats — so the aggregate
// doubles as a completeness check on the observer hooks (asserted by the
// observer-completeness test in internal/core).
//
// Response time is measured per job from its release event to the
// completion edge: a periodic task completes when it blocks for its next
// period, an aperiodic task when it terminates or goes to sleep.
type Aggregator struct {
	end    sim.Time
	hasEnd bool
	pes    map[string]*peAgg
	order  []string
}

// NewAggregator creates an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{pes: map[string]*peAgg{}}
}

type peAgg struct {
	name        string
	first, last sim.Time
	started     bool

	dispatches  uint64
	ctxSwitches uint64
	preemptions uint64
	irqEnters   uint64
	irqReturns  uint64

	busy, idle sim.Time
	curTask    map[int]string   // CPU slot -> running task ("" = idle)
	lastRun    map[int]string   // CPU slot -> last non-idle task
	lastAt     map[int]sim.Time // CPU slot -> last occupancy change

	readyAt   sim.Time
	readyLen  int64
	readyArea int64 // integral of length over time
	readyMax  int64
	readySeen bool

	tasks     map[string]*taskAgg
	taskOrder []string
}

type taskAgg struct {
	name        string
	dispatches  uint64
	preemptions uint64
	releases    int
	completions int

	releaseAt   sim.Time
	haveRelease bool
	resp        []sim.Time

	blocked     bool
	blockAt     sim.Time
	blockReason core.BlockReason
	blocking    sim.Time

	busy sim.Time
}

func (a *Aggregator) pe(name string) *peAgg {
	p, ok := a.pes[name]
	if !ok {
		p = &peAgg{
			name:    name,
			curTask: map[int]string{},
			lastRun: map[int]string{},
			lastAt:  map[int]sim.Time{},
			tasks:   map[string]*taskAgg{},
		}
		a.pes[name] = p
		a.order = append(a.order, name)
	}
	return p
}

func (p *peAgg) task(name string) *taskAgg {
	t, ok := p.tasks[name]
	if !ok {
		t = &taskAgg{name: name}
		p.tasks[name] = t
		p.taskOrder = append(p.taskOrder, name)
	}
	return t
}

// SetEnd fixes the end of the observation span (typically Kernel.Now()
// after the run); without it the span ends at the last event.
func (a *Aggregator) SetEnd(t sim.Time) { a.end, a.hasEnd = t, true }

// Emit consumes one event.
func (a *Aggregator) Emit(e Event) {
	if e.PE == "" {
		return // application markers carry no scheduler state
	}
	p := a.pe(e.PE)
	if !p.started {
		p.first, p.started = e.At, true
	}
	if e.At > p.last {
		p.last = e.At
	}
	switch e.Kind {
	case KindDispatch:
		// Charge the elapsed occupancy of this CPU slot before switching.
		if last, ok := p.lastAt[e.CPU]; ok {
			dt := e.At - last
			if cur := p.curTask[e.CPU]; cur != "" {
				p.busy += dt
				p.task(cur).busy += dt
			} else {
				p.idle += dt
			}
		}
		p.curTask[e.CPU] = e.Task
		p.lastAt[e.CPU] = e.At
		if e.Task != "" {
			p.dispatches++
			p.task(e.Task).dispatches++
			if lr, ok := p.lastRun[e.CPU]; ok && lr != e.Task {
				p.ctxSwitches++
			}
			p.lastRun[e.CPU] = e.Task
		}
	case KindPreempt:
		p.preemptions++
		p.task(e.Task).preemptions++
	case KindRelease:
		t := p.task(e.Task)
		t.releases++
		t.releaseAt = e.At
		t.haveRelease = true
	case KindBlock:
		t := p.task(e.Task)
		t.blocked = true
		t.blockAt = e.At
		t.blockReason = e.Reason
		// End-of-job edges: the next period, or going back to sleep.
		if (e.Reason == core.BlockPeriod || e.Reason == core.BlockSleep) && t.haveRelease {
			t.complete(e.At)
		}
	case KindUnblock:
		t := p.task(e.Task)
		if t.blocked {
			switch t.blockReason {
			case core.BlockEvent, core.BlockMutex, core.BlockChildren:
				t.blocking += e.At - t.blockAt
			}
			t.blocked = false
		}
	case KindState:
		if e.To == core.TaskTerminated || e.To == core.TaskKilled {
			t := p.task(e.Task)
			if t.haveRelease {
				t.complete(e.At)
			}
		}
	case KindIRQEnter:
		p.irqEnters++
	case KindIRQReturn:
		p.irqReturns++
	case KindReadyLen:
		if p.readySeen {
			p.readyArea += int64(e.At-p.readyAt) * p.readyLen
		}
		p.readyAt = e.At
		p.readyLen = e.Arg
		p.readySeen = true
		if e.Arg > p.readyMax {
			p.readyMax = e.Arg
		}
	}
}

func (t *taskAgg) complete(at sim.Time) {
	t.completions++
	t.resp = append(t.resp, at-t.releaseAt)
	t.haveRelease = false
}

// ---------------------------------------------------------------------------
// Reports.

// TaskReport is one task's aggregated metrics.
type TaskReport struct {
	Task        string
	Dispatches  uint64
	Preemptions uint64
	Releases    int
	Jobs        int // completed jobs (response-time samples)

	RespMin  sim.Time
	RespMax  sim.Time
	RespMean sim.Time
	RespP99  sim.Time
	Jitter   sim.Time // RespMax - RespMin

	Blocking    sim.Time // time blocked on events/mutexes/fork-join
	Busy        sim.Time // CPU occupancy
	Utilization float64  // Busy / PE span

	RespSamples []sim.Time // retained so reports stay mergeable
}

// PEReport is one scheduler instance's aggregated metrics.
type PEReport struct {
	PE   string
	Span sim.Time // first event (or earliest merge member) to end

	Dispatches      uint64
	ContextSwitches uint64
	Preemptions     uint64
	IRQEnters       uint64
	IRQReturns      uint64

	Busy        sim.Time
	Idle        sim.Time
	Utilization float64

	ReadyMax  int64
	ReadyMean float64 // time-weighted mean ready-queue length

	Tasks []TaskReport

	readyArea float64 // carried for merging
}

// Report is a full metrics snapshot, serializable and mergeable.
type Report struct {
	PEs []PEReport
}

// Report builds the metrics snapshot at the current aggregation state.
// It does not mutate the aggregator, so it can be called mid-simulation.
func (a *Aggregator) Report() *Report {
	r := &Report{}
	for _, name := range a.order {
		p := a.pes[name]
		end := p.last
		if a.hasEnd && a.end > end {
			end = a.end
		}
		pr := PEReport{
			PE:              p.name,
			Span:            end - p.first,
			Dispatches:      p.dispatches,
			ContextSwitches: p.ctxSwitches,
			Preemptions:     p.preemptions,
			IRQEnters:       p.irqEnters,
			IRQReturns:      p.irqReturns,
			Busy:            p.busy,
			Idle:            p.idle,
			ReadyMax:        p.readyMax,
		}
		// Trailing occupancy and ready-queue intervals up to the end.
		trailingBusy := map[string]sim.Time{}
		for cpu, last := range p.lastAt {
			dt := end - last
			if cur := p.curTask[cpu]; cur != "" {
				pr.Busy += dt
				trailingBusy[cur] += dt
			} else {
				pr.Idle += dt
			}
		}
		area := p.readyArea
		if p.readySeen {
			area += int64(end-p.readyAt) * p.readyLen
		}
		pr.readyArea = float64(area)
		if pr.Span > 0 {
			pr.ReadyMean = pr.readyArea / float64(pr.Span)
			pr.Utilization = float64(pr.Busy) / float64(pr.Span)
		}
		for _, tn := range p.taskOrder {
			t := p.tasks[tn]
			tr := TaskReport{
				Task:        t.name,
				Dispatches:  t.dispatches,
				Preemptions: t.preemptions,
				Releases:    t.releases,
				Jobs:        t.completions,
				Blocking:    t.blocking,
				Busy:        t.busy + trailingBusy[t.name],
				RespSamples: append([]sim.Time(nil), t.resp...),
			}
			tr.fillRespStats()
			if pr.Span > 0 {
				tr.Utilization = float64(tr.Busy) / float64(pr.Span)
			}
			pr.Tasks = append(pr.Tasks, tr)
		}
		r.PEs = append(r.PEs, pr)
	}
	return r
}

func (tr *TaskReport) fillRespStats() {
	xs := tr.RespSamples
	if len(xs) == 0 {
		tr.RespMin, tr.RespMax, tr.RespMean, tr.RespP99, tr.Jitter = 0, 0, 0, 0, 0
		return
	}
	var sum sim.Time
	tr.RespMin, tr.RespMax = xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < tr.RespMin {
			tr.RespMin = x
		}
		if x > tr.RespMax {
			tr.RespMax = x
		}
	}
	tr.RespMean = sum / sim.Time(len(xs))
	tr.RespP99 = Percentile(xs, 0.99)
	tr.Jitter = tr.RespMax - tr.RespMin
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

// Merge folds many reports (e.g. one per job of a batch sweep) into a
// single report: counters and times sum, response-time statistics are
// recomputed over the union of the samples, ready-queue maxima take the
// max and means combine span-weighted. PEs and tasks are matched by name
// in first-seen order, so merging results delivered in submission order
// is deterministic.
func Merge(reports ...*Report) *Report {
	out := &Report{}
	idx := map[string]int{}
	for _, r := range reports {
		if r == nil {
			continue
		}
		for _, pr := range r.PEs {
			i, ok := idx[pr.PE]
			if !ok {
				i = len(out.PEs)
				idx[pr.PE] = i
				out.PEs = append(out.PEs, PEReport{PE: pr.PE})
			}
			dst := &out.PEs[i]
			dst.Span += pr.Span
			dst.Dispatches += pr.Dispatches
			dst.ContextSwitches += pr.ContextSwitches
			dst.Preemptions += pr.Preemptions
			dst.IRQEnters += pr.IRQEnters
			dst.IRQReturns += pr.IRQReturns
			dst.Busy += pr.Busy
			dst.Idle += pr.Idle
			if pr.ReadyMax > dst.ReadyMax {
				dst.ReadyMax = pr.ReadyMax
			}
			if pr.readyArea != 0 {
				dst.readyArea += pr.readyArea
			} else {
				// Reports rebuilt from serialized form lose the raw area;
				// reconstruct it from the mean.
				dst.readyArea += pr.ReadyMean * float64(pr.Span)
			}
			tidx := map[string]int{}
			for j, t := range dst.Tasks {
				tidx[t.Task] = j
			}
			for _, tr := range pr.Tasks {
				j, ok := tidx[tr.Task]
				if !ok {
					j = len(dst.Tasks)
					tidx[tr.Task] = j
					dst.Tasks = append(dst.Tasks, TaskReport{Task: tr.Task})
				}
				dt := &dst.Tasks[j]
				dt.Dispatches += tr.Dispatches
				dt.Preemptions += tr.Preemptions
				dt.Releases += tr.Releases
				dt.Jobs += tr.Jobs
				dt.Blocking += tr.Blocking
				dt.Busy += tr.Busy
				dt.RespSamples = append(dt.RespSamples, tr.RespSamples...)
			}
		}
	}
	for i := range out.PEs {
		pr := &out.PEs[i]
		if pr.Span > 0 {
			pr.Utilization = float64(pr.Busy) / float64(pr.Span)
			pr.ReadyMean = pr.readyArea / float64(pr.Span)
		}
		for j := range pr.Tasks {
			tr := &pr.Tasks[j]
			tr.fillRespStats()
			if pr.Span > 0 {
				tr.Utilization = float64(tr.Busy) / float64(pr.Span)
			}
		}
	}
	return out
}

// WriteText renders the report as a human-readable table.
func (r *Report) WriteText(w io.Writer) error {
	for _, pr := range r.PEs {
		if _, err := fmt.Fprintf(w,
			"PE %s: span %v, dispatches %d, context switches %d, preemptions %d, irqs %d/%d, busy %v (%.1f%%), idle %v, readyq max %d mean %.2f\n",
			pr.PE, pr.Span, pr.Dispatches, pr.ContextSwitches, pr.Preemptions,
			pr.IRQEnters, pr.IRQReturns, pr.Busy, 100*pr.Utilization, pr.Idle,
			pr.ReadyMax, pr.ReadyMean); err != nil {
			return err
		}
		if len(pr.Tasks) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-14s %5s %5s %8s %10s %10s %10s %10s %10s %10s %6s\n",
			"task", "jobs", "disp", "preempt", "resp-min", "resp-mean", "resp-p99",
			"resp-max", "jitter", "blocked", "util%"); err != nil {
			return err
		}
		for _, tr := range pr.Tasks {
			if _, err := fmt.Fprintf(w, "  %-14s %5d %5d %8d %10v %10v %10v %10v %10v %10v %5.1f%%\n",
				tr.Task, tr.Jobs, tr.Dispatches, tr.Preemptions, tr.RespMin,
				tr.RespMean, tr.RespP99, tr.RespMax, tr.Jitter, tr.Blocking,
				100*tr.Utilization); err != nil {
				return err
			}
		}
	}
	return nil
}
