// Package trace records and analyzes simulation activity of both the
// unscheduled specification model and the RTOS-based architecture model.
// It regenerates the paper's Figure 8 (simulation traces of the example
// design before and after dynamic-scheduling refinement) as event lists
// and ASCII Gantt charts, and computes the metrics Table 1 reports
// (context switches, latencies such as the vocoder's transcoding delay).
//
// A Recorder is a sink of the telemetry event stream: attach it to a
// scheduler with telemetry.AttachSched, alone or on a telemetry.Bus, and
// it stores the stream's task-state, dispatch, IRQ and marker events.
package trace

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
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

// Marker records an instrumentation point.
func (r *Recorder) Marker(at sim.Time, label, task string, arg int64) {
	r.add(at, KindMarker, r.intern(task), 0, 0, r.intern(label), arg)
}

// SegBegin records the start of an execution segment of a behavior in the
// unscheduled model.
func (r *Recorder) SegBegin(at sim.Time, task string) {
	r.add(at, KindSegBegin, r.intern(task), 0, 0, 0, 0)
}

// SegEnd records the end of an execution segment.
func (r *Recorder) SegEnd(at sim.Time, task string) {
	r.add(at, KindSegEnd, r.intern(task), 0, 0, 0, 0)
}

// Emit stores an event of the telemetry stream as a record: task
// states, dispatches (naming idle "-"), IRQ entries and returns, and
// markers. It drops the events the trace formats do not carry: releases,
// preemptions, blocks and unblocks, ready-queue lengths and faults.
func (r *Recorder) Emit(e telemetry.Event) {
	switch e.Kind {
	case telemetry.KindState:
		r.add(e.At, KindTaskState, r.intern(e.Task), r.intern(e.From.String()), r.intern(e.To.String()), 0, 0)
	case telemetry.KindDispatch:
		r.add(e.At, KindDispatch, 0, r.intern(taskOrIdle(e.Other)), r.intern(taskOrIdle(e.Task)), 0, 0)
	case telemetry.KindIRQEnter:
		r.add(e.At, KindIRQ, 0, 0, 0, r.intern(e.Other), 1)
	case telemetry.KindIRQReturn:
		r.add(e.At, KindIRQ, 0, 0, 0, r.intern(e.Other), 0)
	case telemetry.KindMarker:
		r.Marker(e.At, e.Other, e.Task, e.Arg)
	}
}

// taskOrIdle names a dispatch event's task, "-" for idle.
func taskOrIdle(name string) string {
	if name == "" {
		return "-"
	}
	return name
}

// Target returns the one sink a model writes its markers to: rec itself
// when there are no buses, one bus over rec and the buses when there are,
// the buses alone (one bus over several) without rec, and nil with
// neither. A model that records its schedulers into rec attaches them to
// the same sink.
func Target(rec *Recorder, bus []*telemetry.Bus) telemetry.Sink {
	switch {
	case rec != nil && len(bus) == 0:
		return rec
	case rec == nil && len(bus) == 1:
		return bus[0]
	case rec == nil && len(bus) == 0:
		return nil
	}
	sinks := make([]telemetry.Sink, 0, len(bus)+1)
	if rec != nil {
		sinks = append(sinks, rec)
	}
	for _, b := range bus {
		sinks = append(sinks, b)
	}
	return telemetry.NewBus(sinks...)
}
