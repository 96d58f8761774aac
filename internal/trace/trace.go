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

// sym indexes a Recorder's string table; sym 0 is always "".
type sym uint32

const (
	symBits = 24
	symMask = 1<<symBits - 1
	// noSym is what lookup returns for a string the trace never stored;
	// no entry holds it, so comparisons against it fail.
	noSym = ^sym(0)
)

// entry is one stored record. It holds no pointer, so the pages of
// entries are never scanned by the garbage collector, and it takes 32
// bytes where a Record takes 88: the four strings are indices into the
// recorder's string table, and the kind shares a word with the label.
type entry struct {
	at             sim.Time
	arg            int64
	task, from, to sym
	kl             uint32 // kind<<symBits | label sym
}

// kindLabel packs a kind and a label the way entry.kl holds them, so a
// reader matches both with one comparison.
func kindLabel(k Kind, label sym) uint32 { return uint32(k)<<symBits | uint32(label) }

func (e *entry) kind() Kind { return Kind(e.kl >> symBits) }
func (e *entry) label() sym { return sym(e.kl & symMask) }

// Recorder accumulates trace records. It is not safe for use outside the
// single-threaded simulation.
//
// Records are stored as entries in a list of pages: the first holds
// firstPage entries and each later one twice its predecessor, up to
// maxPage. Append never moves a stored entry, so each is written once.
// The distinct strings of the trace live once in a table: the first
// inlineStrs are scanned linearly, and a longer table is indexed by a map.
// (A map from the first string on costs a Table-1 spec+arch pair 18 more
// allocations: the map's groups and the table's growth.)
// A trace holds at most 2^24 distinct strings and kinds 0 to 255.
type Recorder struct {
	name   string
	pages  [][]entry
	n      int      // entries across all pages
	end    sim.Time // At of the last record
	strs   []string // sym -> string; strs[0] is ""
	index  map[string]sym
	inline [inlineStrs]string // strs' first backing array
	tees   []MarkerSink
}

const (
	firstPage  = 64
	maxPage    = 1024
	inlineStrs = 32
)

// New creates an empty recorder.
func New(name string) *Recorder {
	r := &Recorder{name: name}
	r.strs = r.inline[:1]
	return r
}

// Name returns the recorder's name.
func (r *Recorder) Name() string { return r.name }

// SetName renames the recorder (the name labels renderings such as the
// VCD module), e.g. when a caller adopts an engine's recorder.
func (r *Recorder) SetName(name string) { r.name = name }

// Records returns all records in chronological (append) order, in a
// fresh slice on every call: writing into it leaves the trace unchanged.
func (r *Recorder) Records() []Record {
	if r.n == 0 {
		return nil
	}
	out := make([]Record, 0, r.n)
	r.Each(func(rec Record) { out = append(out, rec) })
	return out
}

// Each calls fn with every record in append order, without building a
// slice of them.
func (r *Recorder) Each(fn func(Record)) {
	for _, pg := range r.pages {
		for i := range pg {
			fn(r.record(&pg[i]))
		}
	}
}

// record expands a stored entry.
func (r *Recorder) record(e *entry) Record {
	return Record{At: e.at, Kind: e.kind(), Task: r.str(e.task), From: r.str(e.from),
		To: r.str(e.to), Label: r.str(e.label()), Arg: e.arg}
}

// Len returns the number of records.
func (r *Recorder) Len() int { return r.n }

// Append adds an arbitrary record. Its Kind must lie in 0..255.
func (r *Recorder) Append(rec Record) {
	r.add(rec.At, rec.Kind, r.intern(rec.Task), r.intern(rec.From), r.intern(rec.To),
		r.intern(rec.Label), rec.Arg)
}

// add packs a record into an entry and stores it.
func (r *Recorder) add(at sim.Time, kind Kind, task, from, to, label sym, arg int64) {
	if uint(kind) > 0xff {
		panic(fmt.Sprintf("trace: record kind %d out of range", int(kind)))
	}
	k := len(r.pages) - 1
	if k < 0 || len(r.pages[k]) == cap(r.pages[k]) {
		size := firstPage
		if k >= 0 {
			size = min(2*cap(r.pages[k]), maxPage)
		} else {
			r.pages = make([][]entry, 0, 8) // eight pages hold 6080 entries
		}
		r.pages = append(r.pages, make([]entry, 0, size))
		k++
	}
	r.pages[k] = append(r.pages[k], entry{at: at, arg: arg, task: task, from: from, to: to,
		kl: kindLabel(kind, label)})
	r.n++
	r.end = at
}

// str returns the string a sym stands for.
func (r *Recorder) str(k sym) string {
	if k == 0 {
		return ""
	}
	return r.strs[k]
}

// lookup returns the sym of s, or noSym if the trace never stored s.
func (r *Recorder) lookup(s string) sym {
	if s == "" {
		return 0
	}
	if r.index != nil {
		if k, ok := r.index[s]; ok {
			return k
		}
		return noSym
	}
	for k := 1; k < len(r.strs); k++ {
		if r.strs[k] == s {
			return sym(k)
		}
	}
	return noSym
}

// intern returns the sym of s, adding s to the table if it is new.
func (r *Recorder) intern(s string) sym {
	if k := r.lookup(s); k != noSym {
		return k
	}
	if len(r.strs) == 0 { // a zero Recorder, not made by New
		r.strs = r.inline[:1]
	}
	k := sym(len(r.strs))
	if k > symMask {
		panic("trace: more than 2^24 distinct strings in one trace")
	}
	r.strs = append(r.strs, s)
	switch {
	case r.index != nil:
		r.index[s] = k
	case len(r.strs) > inlineStrs:
		r.index = make(map[string]sym, 2*len(r.strs))
		for j, x := range r.strs[1:] {
			r.index[x] = sym(j + 1)
		}
	}
	return k
}

// Marker records an instrumentation point and forwards it to any teed
// sinks.
func (r *Recorder) Marker(at sim.Time, label, task string, arg int64) {
	r.add(at, KindMarker, r.intern(task), 0, 0, r.intern(label), arg)
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
	r.add(at, KindSegBegin, r.intern(task), 0, 0, 0, 0)
}

// SegEnd records the end of an execution segment.
func (r *Recorder) SegEnd(at sim.Time, task string) {
	r.add(at, KindSegEnd, r.intern(task), 0, 0, 0, 0)
}

// Attach subscribes the recorder to an RTOS model instance, recording all
// task state changes, dispatches and IRQs.
func (r *Recorder) Attach(os *core.OS) { r.AttachSched(&os.Sched) }

// AttachSched is Attach for a bare scheduler state — the form the
// run-to-completion engine (internal/rtc) runs its RTOS model in.
func (r *Recorder) AttachSched(s *core.Sched) {
	a := &osAdapter{r: r}
	a.tasks = a.inline[:]
	s.Observe(a)
}

// osAdapter converts core.Observer callbacks into entries. It caches the
// syms of its scheduler's task names by task ID and of the state names by
// state; the cache is per scheduler, since the schedulers sharing a
// recorder (one per PE) all number their tasks from 0.
type osAdapter struct {
	r      *Recorder
	tasks  []sym   // task ID -> name sym of the task last seen with that ID
	inline [16]sym // tasks' first backing array
	states [16]sym // core.TaskState -> name sym, 0 until first seen
	idle   sym     // "-", 0 until first seen
}

func (a *osAdapter) task(t *core.Task) sym {
	if t == nil {
		if a.idle == 0 {
			a.idle = a.r.intern("-")
		}
		return a.idle
	}
	// A reset scheduler (core.OS.Init, Sched.Setup) numbers its new tasks
	// from 0 again, so a cached sym counts only while its name matches.
	id := t.ID()
	if id < len(a.tasks) {
		if k := a.tasks[id]; a.r.str(k) == t.Name() {
			return k
		}
	}
	k := a.r.intern(t.Name())
	if id >= len(a.tasks) {
		a.tasks = append(a.tasks, make([]sym, id+1-len(a.tasks))...)
	}
	a.tasks[id] = k
	return k
}

func (a *osAdapter) state(s core.TaskState) sym {
	if uint(s) >= uint(len(a.states)) {
		return a.r.intern(s.String())
	}
	if a.states[s] == 0 {
		a.states[s] = a.r.intern(s.String())
	}
	return a.states[s]
}

func (a *osAdapter) OnTaskState(at sim.Time, t *core.Task, old, new core.TaskState) {
	a.r.add(at, KindTaskState, a.task(t), a.state(old), a.state(new), 0, 0)
}

func (a *osAdapter) OnDispatch(at sim.Time, cpu int, prev, next *core.Task) {
	a.r.add(at, KindDispatch, 0, a.task(prev), a.task(next), 0, 0)
}

func (a *osAdapter) OnIRQ(at sim.Time, name string, enter bool) {
	arg := int64(0)
	if enter {
		arg = 1
	}
	a.r.add(at, KindIRQ, 0, 0, 0, a.r.intern(name), arg)
}
