// Package telemetry is the scheduler observability layer: a structured
// event bus over the RTOS model's observer hooks (core.ObserverExt, on
// one CPU or several) feeding pluggable sinks — a per-task/per-PE metrics
// aggregator, a Chrome trace-event exporter loadable in Perfetto, a
// Prometheus-style text exporter, and a compact binary ring buffer for
// always-on capture.
//
// The paper's entire evaluation (Table 1, Figure 8) consists of
// observations of the RTOS model: context-switch counts, transcoding
// delay, interleaving traces. This package makes those observations a
// first-class, diffable artifact: every simulation run can emit a
// canonical event stream (pinned by golden-trace tests), a trace file for
// a visual timeline, and a metrics report whose counters are derived
// purely from the event stream — never hand-counted from core.Stats.
//
// All sinks run synchronously inside the single-threaded simulation; a
// Bus and its sinks must not be shared across concurrently running
// kernels (create one Bus per simulation, exactly like trace.Recorder).
package telemetry

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind classifies a telemetry event.
type Kind uint8

const (
	// KindRelease: a new job of Task was released at At.
	KindRelease Kind = iota
	// KindDispatch: CPU handover on CPU; Task is the next task ("" =
	// idle), Other the previous one ("" = none/idle).
	KindDispatch
	// KindPreempt: Task involuntarily lost the CPU; Other is the
	// preempting task if known.
	KindPreempt
	// KindBlock: Task left the CPU for a waiting state (Reason).
	KindBlock
	// KindUnblock: Task re-entered the ready queue (Reason it waited).
	KindUnblock
	// KindState: generic task state transition From -> To.
	KindState
	// KindIRQEnter / KindIRQReturn: interrupt service routine Other
	// entered / returned.
	KindIRQEnter
	KindIRQReturn
	// KindReadyLen: the ready-queue length changed to Arg.
	KindReadyLen
	// KindMarker: application instrumentation point (Other = label,
	// Task = emitting task/behavior, Arg free-form), teed from
	// trace.Recorder markers.
	KindMarker
	// KindFaultInject: the fault-injection layer (internal/fault)
	// perturbed the model; Other = injector name, Task = affected
	// task/IRQ/semaphore, Arg = injector-specific magnitude.
	KindFaultInject
	// KindFaultDeadlock: runtime diagnosis reported one edge of a
	// wait-for cycle; Task = blocked task, Other = "resource held by
	// holder".
	KindFaultDeadlock
	// KindFaultStarve: runtime diagnosis reported a stall or starvation
	// victim; Task = blocked task, Other = the blocking site.
	KindFaultStarve

	kindCount = int(KindFaultStarve) + 1
)

// String returns a short stable kind name (used in golden traces).
func (k Kind) String() string {
	switch k {
	case KindRelease:
		return "release"
	case KindDispatch:
		return "dispatch"
	case KindPreempt:
		return "preempt"
	case KindBlock:
		return "block"
	case KindUnblock:
		return "unblock"
	case KindState:
		return "state"
	case KindIRQEnter:
		return "irq-enter"
	case KindIRQReturn:
		return "irq-return"
	case KindReadyLen:
		return "readyq"
	case KindMarker:
		return "marker"
	case KindFaultInject:
		return "fault.inject"
	case KindFaultDeadlock:
		return "fault.deadlock"
	case KindFaultStarve:
		return "fault.starve"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one structured scheduler event. The zero value of unused
// fields is meaningful ("" strings, zero Arg), which keeps the binary
// encoding compact.
type Event struct {
	At     sim.Time
	Kind   Kind
	PE     string // emitting RTOS/scheduler instance ("" for app markers)
	CPU    int    // CPU slot (0 on uniprocessor instances)
	Task   string // subject task ("" for PE-level events / idle)
	Other  string // prev task, preemptor, IRQ name, or marker label
	Reason core.BlockReason
	From   core.TaskState // old state (KindState only)
	To     core.TaskState // new state (KindState only)
	Arg    int64          // ready-queue length / marker argument
}

// String renders the event as one canonical golden-trace line. The format
// is part of the golden-trace contract: changing it invalidates committed
// traces under testdata/golden/.
func (e Event) String() string {
	pe := e.PE
	if pe == "" {
		pe = "-"
	}
	head := fmt.Sprintf("%-10s %-4s cpu%d %-10s", e.At, pe, e.CPU, e.Kind)
	switch e.Kind {
	case KindRelease:
		return fmt.Sprintf("%s %s", head, e.Task)
	case KindDispatch:
		prev, next := e.Other, e.Task
		if prev == "" {
			prev = "-"
		}
		if next == "" {
			next = "-"
		}
		return fmt.Sprintf("%s %s -> %s", head, prev, next)
	case KindPreempt:
		by := e.Other
		if by == "" {
			by = "-"
		}
		return fmt.Sprintf("%s %s by %s", head, e.Task, by)
	case KindBlock, KindUnblock:
		return fmt.Sprintf("%s %s (%s)", head, e.Task, e.Reason)
	case KindState:
		return fmt.Sprintf("%s %s %s -> %s", head, e.Task, e.From, e.To)
	case KindIRQEnter, KindIRQReturn:
		return fmt.Sprintf("%s %s", head, e.Other)
	case KindReadyLen:
		return fmt.Sprintf("%s %d", head, e.Arg)
	case KindMarker, KindFaultInject:
		return fmt.Sprintf("%s %s %s arg=%d", head, e.Other, e.Task, e.Arg)
	case KindFaultDeadlock, KindFaultStarve:
		return fmt.Sprintf("%s %s blocked on %s", head, e.Task, e.Other)
	default:
		return head
	}
}

// Sink consumes events. Implementations must be cheap and must not block;
// they run inside the simulation loop.
type Sink interface {
	Emit(Event)
}

// Bus fans scheduler events out to its sinks. Attach subscribes it to an
// RTOS model instance; one bus can observe several instances (multi-PE
// designs), each tagged with its PE name.
type Bus struct {
	sinks []Sink
}

// NewBus creates a bus over the given sinks.
func NewBus(sinks ...Sink) *Bus {
	return &Bus{sinks: sinks}
}

// Emit forwards one event to every sink.
func (b *Bus) Emit(e Event) {
	for _, s := range b.sinks {
		s.Emit(e)
	}
}

// Attach subscribes the bus to a uniprocessor RTOS model instance; events
// carry the instance name as their PE.
func (b *Bus) Attach(os *core.OS) { b.AttachSched(&os.Sched) }

// AttachSched is Attach for a bare scheduler state — the form the
// run-to-completion engine (internal/rtc) runs its RTOS model in.
// Every scheduler event carries a CPU slot: dispatch and preempt events
// the slot they act on, task events the slot the task holds at that
// instant (0 when it holds none), ready-queue events the slot of the task
// whose transition changed the queue. On several CPUs a slot vacated is a
// dispatch to idle naming the previous task.
func (b *Bus) AttachSched(s *core.Sched) {
	s.Observe(&coreAdapter{bus: b, pe: s.Name()})
}

// Marker records an application instrumentation point into the stream. It
// has the signature of trace.MarkerSink, so a Bus can be teed onto a
// trace.Recorder with Recorder.TeeMarkers.
func (b *Bus) Marker(at sim.Time, label, task string, arg int64) {
	b.Emit(Event{At: at, Kind: KindMarker, Task: task, Other: label, Arg: arg})
}

// Collector is the simplest sink: it keeps every event (unbounded). Use
// it when the full stream is needed afterwards (golden traces, Chrome
// export); prefer Ring for always-on capture.
type Collector struct {
	Events []Event
}

// Emit appends the event.
func (c *Collector) Emit(e Event) { c.Events = append(c.Events, e) }

// ---------------------------------------------------------------------------
// Observer adapters.

// coreAdapter converts core.ObserverExt callbacks into events.
type coreAdapter struct {
	bus *Bus
	pe  string
}

func taskName(t *core.Task) string {
	if t == nil {
		return ""
	}
	return t.Name()
}

// cpuOf returns the slot t holds, or 0 when it holds none.
func cpuOf(t *core.Task) int { return max(t.CPU(), 0) }

func (a *coreAdapter) OnTaskState(at sim.Time, t *core.Task, old, new core.TaskState) {
	a.bus.Emit(Event{At: at, Kind: KindState, PE: a.pe, CPU: cpuOf(t), Task: t.Name(), From: old, To: new})
}

func (a *coreAdapter) OnDispatch(at sim.Time, cpu int, prev, next *core.Task) {
	a.bus.Emit(Event{At: at, Kind: KindDispatch, PE: a.pe, CPU: cpu,
		Task: taskName(next), Other: taskName(prev)})
}

func (a *coreAdapter) OnIRQ(at sim.Time, name string, enter bool) {
	k := KindIRQReturn
	if enter {
		k = KindIRQEnter
	}
	a.bus.Emit(Event{At: at, Kind: k, PE: a.pe, Other: name})
}

func (a *coreAdapter) OnRelease(at sim.Time, t *core.Task) {
	a.bus.Emit(Event{At: at, Kind: KindRelease, PE: a.pe, CPU: cpuOf(t), Task: t.Name()})
}

func (a *coreAdapter) OnPreempt(at sim.Time, cpu int, t, by *core.Task) {
	a.bus.Emit(Event{At: at, Kind: KindPreempt, PE: a.pe, CPU: cpu,
		Task: t.Name(), Other: taskName(by)})
}

func (a *coreAdapter) OnBlock(at sim.Time, t *core.Task, r core.BlockReason) {
	a.bus.Emit(Event{At: at, Kind: KindBlock, PE: a.pe, CPU: cpuOf(t), Task: t.Name(), Reason: r})
}

func (a *coreAdapter) OnUnblock(at sim.Time, t *core.Task, r core.BlockReason) {
	a.bus.Emit(Event{At: at, Kind: KindUnblock, PE: a.pe, CPU: cpuOf(t), Task: t.Name(), Reason: r})
}

func (a *coreAdapter) OnReadyQueue(at sim.Time, cpu, n int) {
	a.bus.Emit(Event{At: at, Kind: KindReadyLen, PE: a.pe, CPU: cpu, Arg: int64(n)})
}

// OnDiagnosis converts a runtime diagnosis into fault.* events: one
// fault.deadlock event per wait-for cycle edge, or one fault.starve event
// per blocked/starved task when no cycle exists.
func (a *coreAdapter) OnDiagnosis(at sim.Time, d *core.DiagnosisError) {
	if len(d.Cycle) > 0 {
		for _, e := range d.Cycle {
			a.bus.Emit(Event{At: at, Kind: KindFaultDeadlock, PE: a.pe,
				Task: e.Task, Other: e.Resource + " held by " + e.Holder})
		}
		return
	}
	for _, e := range d.Blocked {
		other := e.Resource
		if e.Holder != "" {
			other += " held by " + e.Holder
		}
		a.bus.Emit(Event{At: at, Kind: KindFaultStarve, PE: a.pe,
			Task: e.Task, Other: other})
	}
}

// MarkerLatencies returns the latencies between from- and to-markers of
// the stream under trace.Recorder.Latencies' pairing rule, which it
// applies to the stream's markers — the telemetry-side route to Table 1's
// transcoding delay.
func MarkerLatencies(events []Event, from, to string) []sim.Time {
	rec := trace.New("")
	for _, e := range events {
		if e.Kind == KindMarker {
			rec.Marker(e.At, e.Other, e.Task, e.Arg)
		}
	}
	return rec.Latencies(from, to)
}
