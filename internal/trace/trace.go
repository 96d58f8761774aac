// Package trace records and analyzes simulation activity of both the
// unscheduled specification model and the RTOS-based architecture model.
// It regenerates the paper's Figure 8 (simulation traces of the example
// design before and after dynamic-scheduling refinement) as event lists
// and ASCII Gantt charts, and computes the metrics Table 1 reports
// (context switches, latencies such as the vocoder's transcoding delay).
package trace

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Kind classifies a trace record.
type Kind int

const (
	// KindTaskState: an RTOS task changed state (From/To hold state names).
	KindTaskState Kind = iota
	// KindDispatch: the CPU was handed over (From/To hold task names, "-"
	// for idle).
	KindDispatch
	// KindIRQ: interrupt entry/exit (Label holds the IRQ name, Arg is 1 on
	// entry and 0 on return).
	KindIRQ
	// KindMarker: a user-defined instrumentation point (Label, Task, Arg).
	KindMarker
	// KindSegBegin / KindSegEnd: an execution segment of a behavior in the
	// unscheduled model (Task holds the behavior name).
	KindSegBegin
	KindSegEnd
)

// String returns a short record-kind name.
func (k Kind) String() string {
	switch k {
	case KindTaskState:
		return "state"
	case KindDispatch:
		return "dispatch"
	case KindIRQ:
		return "irq"
	case KindMarker:
		return "marker"
	case KindSegBegin:
		return "seg-begin"
	case KindSegEnd:
		return "seg-end"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Record is one timestamped trace entry.
type Record struct {
	At    sim.Time
	Kind  Kind
	Task  string // task/behavior the record concerns ("" if none)
	From  string // previous state / previous task
	To    string // new state / next task
	Label string // marker label or IRQ name
	Arg   int64  // free-form argument (frame number, enter flag, ...)
}

// String renders the record as one event-list line.
func (r Record) String() string {
	switch r.Kind {
	case KindTaskState:
		return fmt.Sprintf("%-10s state    %s: %s -> %s", r.At, r.Task, r.From, r.To)
	case KindDispatch:
		return fmt.Sprintf("%-10s dispatch %s -> %s", r.At, r.From, r.To)
	case KindIRQ:
		dir := "return"
		if r.Arg == 1 {
			dir = "enter"
		}
		return fmt.Sprintf("%-10s irq      %s %s", r.At, r.Label, dir)
	case KindMarker:
		return fmt.Sprintf("%-10s marker   %s %s arg=%d", r.At, r.Label, r.Task, r.Arg)
	case KindSegBegin:
		return fmt.Sprintf("%-10s exec     %s begins", r.At, r.Task)
	case KindSegEnd:
		return fmt.Sprintf("%-10s exec     %s ends", r.At, r.Task)
	default:
		return fmt.Sprintf("%-10s %s", r.At, r.Kind)
	}
}

// MarkerSink receives a copy of every marker recorded on a Recorder
// (telemetry.Bus implements it).
type MarkerSink interface {
	Marker(at sim.Time, label, task string, arg int64)
}

// Recorder accumulates trace records. It is not safe for use outside the
// single-threaded simulation.
//
// Records live in a list of pages: the first holds firstPage records and
// each later one twice its predecessor, up to maxPage. Append never
// moves a stored record, so each record is written once.
type Recorder struct {
	name  string
	pages [][]Record
	n     int      // records across all pages
	end   sim.Time // At of the last record
	tees  []MarkerSink
}

const (
	firstPage = 64
	maxPage   = 1024
)

// New creates an empty recorder.
func New(name string) *Recorder { return &Recorder{name: name} }

// Name returns the recorder's name.
func (r *Recorder) Name() string { return r.name }

// SetName renames the recorder (the name labels renderings such as the
// VCD module), e.g. when a caller adopts an engine's recorder.
func (r *Recorder) SetName(name string) { r.name = name }

// Records returns all records in chronological (append) order. A trace
// spread over several pages is joined once into a single page, which the
// recorder keeps, so repeated calls do not copy again.
func (r *Recorder) Records() []Record {
	switch len(r.pages) {
	case 0:
		return nil
	case 1:
		return r.pages[0]
	}
	all := make([]Record, 0, r.n)
	for _, pg := range r.pages {
		all = append(all, pg...)
	}
	r.pages = [][]Record{all}
	return all
}

// Len returns the number of records.
func (r *Recorder) Len() int { return r.n }

// Append adds an arbitrary record.
func (r *Recorder) Append(rec Record) {
	k := len(r.pages) - 1
	if k < 0 || len(r.pages[k]) == cap(r.pages[k]) {
		size := firstPage
		if k >= 0 {
			size = min(2*cap(r.pages[k]), maxPage)
		}
		r.pages = append(r.pages, make([]Record, 0, size))
		k++
	}
	r.pages[k] = append(r.pages[k], rec)
	r.n++
	r.end = rec.At
}

// Marker records an instrumentation point and forwards it to any teed
// sinks.
func (r *Recorder) Marker(at sim.Time, label, task string, arg int64) {
	r.Append(Record{At: at, Kind: KindMarker, Task: task, Label: label, Arg: arg})
	for _, s := range r.tees {
		s.Marker(at, label, task, arg)
	}
}

// TeeMarkers forwards every future marker to s as well, so instrumented
// models need a single Marker call site to feed both the recorder and a
// telemetry bus.
func (r *Recorder) TeeMarkers(s MarkerSink) { r.tees = append(r.tees, s) }

// SegBegin records the start of an execution segment of a behavior in the
// unscheduled model.
func (r *Recorder) SegBegin(at sim.Time, task string) {
	r.Append(Record{At: at, Kind: KindSegBegin, Task: task})
}

// SegEnd records the end of an execution segment.
func (r *Recorder) SegEnd(at sim.Time, task string) {
	r.Append(Record{At: at, Kind: KindSegEnd, Task: task})
}

// Attach subscribes the recorder to an RTOS model instance, recording all
// task state changes, dispatches and IRQs.
func (r *Recorder) Attach(os *core.OS) { r.AttachSched(&os.Sched) }

// AttachSched is Attach for a bare scheduler state — the form the
// run-to-completion engine (internal/rtc) runs its RTOS model in.
func (r *Recorder) AttachSched(s *core.Sched) {
	s.Observe(&osAdapter{r: r})
}

// osAdapter converts core.Observer callbacks into records.
type osAdapter struct {
	r *Recorder
}

func (a *osAdapter) OnTaskState(at sim.Time, t *core.Task, old, new core.TaskState) {
	a.r.Append(Record{At: at, Kind: KindTaskState, Task: t.Name(),
		From: old.String(), To: new.String()})
}

func (a *osAdapter) OnDispatch(at sim.Time, prev, next *core.Task) {
	name := func(t *core.Task) string {
		if t == nil {
			return "-"
		}
		return t.Name()
	}
	a.r.Append(Record{At: at, Kind: KindDispatch, From: name(prev), To: name(next)})
}

func (a *osAdapter) OnIRQ(at sim.Time, name string, enter bool) {
	arg := int64(0)
	if enter {
		arg = 1
	}
	a.r.Append(Record{At: at, Kind: KindIRQ, Label: name, Arg: arg})
}
