package core

// This file adds runtime diagnosis to the RTOS model: a wait-for-graph
// deadlock detector over the synchronization primitives layered on the
// model (core.Mutex and the channel library's semaphores, queues,
// rendezvous mailboxes and barriers), a livelock/starvation watchdog, and
// graceful degradation — on detection the simulation drains, observers
// that implement DiagnosisObserver emit a diagnostic event stream (the
// telemetry layer's fault.* kinds), and Run/RunUntil returns a structured
// *DiagnosisError instead of hanging or panicking.
//
// Detection runs at three points:
//
//  1. At block time, for exclusive (ownership-style) resources: a task
//     about to block on a mutex whose ownership chain leads back to
//     itself has definitely closed a circular wait, and the run fails
//     immediately — even while unrelated tasks keep the simulation busy.
//  2. At a kernel stall (the instant the simulation would report a
//     sim.DeadlockError): the full wait-for graph, including counting
//     semaphores and rendezvous, is searched for a cycle. A cycle through
//     at least two distinct resources is reported as a deadlock with the
//     exact task ring; blocked tasks without such a cycle (e.g. consumers
//     of a dropped interrupt's semaphore) are reported as a stall with
//     every blocking site listed.
//  3. Optionally, from a simulated-time watchdog (EnableWatchdog): if no
//     dispatch happened for a full window while runnable work exists, a
//     starvation is reported; if only the watchdog's own timer keeps the
//     simulation alive, the stall diagnosis of point 2 runs.
//
// The detector is always armed — tracking only does map work on the
// blocking slow path — so every existing model exercises its
// false-positive resistance; the watchdog alone is opt-in because its
// timer perturbs quiescence detection.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// DiagnosisKind classifies what the runtime diagnosis found.
type DiagnosisKind int

const (
	// DiagDeadlock: a cycle in the wait-for graph spanning at least two
	// distinct resources — tasks waiting on each other in a ring.
	DiagDeadlock DiagnosisKind = iota
	// DiagStall: blocked tasks with no pending work to wake them, but no
	// resource cycle explains the blockage — typically a lost signal
	// (e.g. a dropped interrupt) leaving consumers waiting forever.
	DiagStall
	// DiagStarvation: the watchdog observed runnable tasks but no
	// dispatch progress for a full window.
	DiagStarvation
)

// String returns "deadlock", "stall" or "starvation".
func (k DiagnosisKind) String() string {
	switch k {
	case DiagDeadlock:
		return "deadlock"
	case DiagStarvation:
		return "starvation"
	default:
		return "stall"
	}
}

// WaitEdge is one arc of the wait-for graph: a blocked task, the resource
// (blocking site) it waits on, and — when the resource has a determinate
// owner — the task holding it.
type WaitEdge struct {
	Task     string // blocked task
	Resource string // blocking site, "kind:name"
	Holder   string // holding task ("" when the resource has no single owner)
}

func (e WaitEdge) String() string {
	if e.Holder == "" {
		return fmt.Sprintf("%s blocked on %s", e.Task, e.Resource)
	}
	return fmt.Sprintf("%s waits on %s held by %s", e.Task, e.Resource, e.Holder)
}

// DiagnosisError is the structured result of a runtime diagnosis. For
// DiagDeadlock, Cycle lists the wait-for ring in canonical rotation
// (starting at the lexicographically smallest task name); Blocked always
// lists every blocked task with its blocking site.
type DiagnosisError struct {
	PE      string
	Kind    DiagnosisKind
	At      sim.Time
	Cycle   []WaitEdge // DiagDeadlock: the circular wait, in order
	Blocked []WaitEdge // every blocked task with its blocking site
	Window  sim.Time   // DiagStarvation: the watchdog window
}

func (e *DiagnosisError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core[%s]: %s diagnosed at %s", e.PE, e.Kind, e.At)
	if e.Kind == DiagStarvation {
		fmt.Fprintf(&b, " (no dispatch progress for %s)", e.Window)
	}
	for _, edge := range e.Cycle {
		fmt.Fprintf(&b, "\n\tcycle: %s", edge)
	}
	if len(e.Cycle) == 0 {
		for _, edge := range e.Blocked {
			fmt.Fprintf(&b, "\n\tblocked: %s", edge)
		}
	}
	return b.String()
}

// DiagnosisObserver is an optional extension of Observer: observers
// registered with OS.Observe that also implement it receive every runtime
// diagnosis recorded on the instance (the telemetry layer converts these
// into fault.* events).
type DiagnosisObserver interface {
	OnDiagnosis(at sim.Time, d *DiagnosisError)
}

// isBlockedState reports task states that wait on another task's action
// (never on a timer): these are the nodes of the wait-for graph.
func isBlockedState(s TaskState) bool {
	switch s {
	case TaskWaitingEvent, TaskWaitingMutex, TaskWaitingChildren, TaskSuspended:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Wait-for graph.

// Monitor maintains the wait-for graph of one OS instance: which task is
// blocked on which resource, and which tasks hold each resource. The
// synchronization primitives feed it; every OS has one (see OS.Monitor).
type Monitor struct {
	os        *OS
	resources []*Resource
	waiting   map[*Task]*Resource
}

func newMonitor(os *OS) *Monitor {
	return &Monitor{os: os, waiting: make(map[*Task]*Resource)}
}

// Monitor returns the instance's wait-for-graph monitor.
func (os *OS) Monitor() *Monitor { return os.monitor }

// NewResource registers a diagnosable resource. kind is a short class
// name ("mutex", "semaphore", "queue", ...); exclusive marks
// ownership-style resources (single determinate holder), which enable the
// immediate cycle check at block time.
func (m *Monitor) NewResource(name, kind string, exclusive bool) *Resource {
	r := &Resource{m: m, name: name, kind: kind, exclusive: exclusive,
		holders: make(map[*Task]int)}
	m.resources = append(m.resources, r)
	return r
}

// Resource is one node class of the wait-for graph. All methods are
// nil-receiver safe, so channels built on a non-RTOS factory can carry a
// nil resource at zero cost.
type Resource struct {
	m         *Monitor
	name      string
	kind      string
	exclusive bool
	holders   map[*Task]int // task -> acquired-but-not-released count
}

// Site returns the blocking-site label, "kind:name".
func (r *Resource) Site() string { return r.kind + ":" + r.name }

// Block registers the calling process's task as blocked on r and, for
// exclusive resources, runs the immediate circular-wait check. Pair with
// Unblock (or Acquire) when the wait is over. Calls from processes that
// are not tasks of the monitored OS (ISRs, spec-level processes) are
// no-ops.
func (r *Resource) Block(p *sim.Proc) {
	if r == nil {
		return
	}
	if t := r.m.taskOf(p); t != nil {
		r.m.blockTask(t, r)
	}
}

// Unblock removes the calling process's task from the waiter set.
func (r *Resource) Unblock(p *sim.Proc) {
	if r == nil {
		return
	}
	if t := r.m.taskOf(p); t != nil {
		delete(r.m.waiting, t)
	}
}

// Acquire records the calling process's task as a holder of r (and ends
// any registered wait).
func (r *Resource) Acquire(p *sim.Proc) {
	if r == nil {
		return
	}
	if t := r.m.taskOf(p); t != nil {
		r.acquireTask(t)
	}
}

// Release drops one hold of the calling process's task on r. Releases by
// processes that never acquired (interrupt handlers signalling a
// semaphore) are no-ops.
func (r *Resource) Release(p *sim.Proc) {
	if r == nil {
		return
	}
	if t := r.m.taskOf(p); t != nil {
		r.releaseTask(t)
	}
}

func (r *Resource) acquireTask(t *Task) {
	delete(r.m.waiting, t)
	r.holders[t]++
}

func (r *Resource) releaseTask(t *Task) {
	if n := r.holders[t]; n > 1 {
		r.holders[t] = n - 1
	} else if n == 1 {
		delete(r.holders, t)
	}
}

// soleHolder returns the single holding task of an exclusively held
// resource, nil otherwise.
func (r *Resource) soleHolder() *Task {
	if len(r.holders) != 1 {
		return nil
	}
	for t := range r.holders {
		return t
	}
	return nil
}

// sortedHolders returns the live holders in task-creation order, so graph
// walks are deterministic.
func (r *Resource) sortedHolders() []*Task {
	hs := make([]*Task, 0, len(r.holders))
	for t := range r.holders {
		if t.state.Alive() {
			hs = append(hs, t)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].id < hs[j].id })
	return hs
}

// taskOf resolves a simulation process to its task on this OS (nil for
// ISRs and foreign processes).
func (m *Monitor) taskOf(p *sim.Proc) *Task {
	for _, t := range m.os.tasks {
		if t.proc == p {
			return t
		}
	}
	return nil
}

// blockTask records the wait edge and, when the resource is exclusive,
// walks the ownership chain: if it leads back to the blocking task, the
// circular wait is definite and the run fails with the cycle.
func (m *Monitor) blockTask(t *Task, r *Resource) {
	m.waiting[t] = r
	if !r.exclusive {
		return
	}
	var cyc []WaitEdge
	cur, rr := t, r
	for {
		h := rr.soleHolder()
		if h == nil || !h.state.Alive() {
			return
		}
		cyc = append(cyc, WaitEdge{Task: cur.name, Resource: rr.Site(), Holder: h.name})
		if h == t {
			d := &DiagnosisError{PE: m.os.name, Kind: DiagDeadlock,
				At: m.os.k.Now(), Cycle: canonicalCycle(cyc)}
			m.os.recordDiagnosis(d)
			m.os.k.Fail(d)
			return
		}
		next := m.waiting[h]
		if next == nil || !next.exclusive || !isBlockedState(h.state) {
			return
		}
		cur, rr = h, next
	}
}

// findCycle searches the full wait-for graph — including non-exclusive
// resources such as counting semaphores — for a circular wait spanning at
// least two distinct resources. Tasks and holders are visited in creation
// order, so the reported cycle is deterministic. Cycles through a single
// resource (co-waiters of one semaphore that each hold stale acquire
// counts) are not circular waits and yield nil; the stall report covers
// them.
func (m *Monitor) findCycle() []WaitEdge {
	color := make(map[*Task]int) // 0 unvisited, 1 on stack, 2 done
	var stack []*Task
	var edges []WaitEdge // edges[i]: stack[i] -> stack[i+1]
	var cycle []WaitEdge

	blockedOn := func(t *Task) *Resource {
		if !t.state.Alive() || !isBlockedState(t.state) {
			return nil
		}
		return m.waiting[t]
	}
	var dfs func(t *Task) bool
	dfs = func(t *Task) bool {
		color[t] = 1
		stack = append(stack, t)
		defer func() {
			stack = stack[:len(stack)-1]
			color[t] = 2
		}()
		r := blockedOn(t)
		if r == nil {
			return false
		}
		for _, h := range r.sortedHolders() {
			if h == t {
				continue // self-hold (signal-style semaphore use)
			}
			e := WaitEdge{Task: t.name, Resource: r.Site(), Holder: h.name}
			if color[h] == 1 {
				idx := 0
				for i, s := range stack {
					if s == h {
						idx = i
						break
					}
				}
				cycle = append(append([]WaitEdge(nil), edges[idx:]...), e)
				return true
			}
			if color[h] == 0 && blockedOn(h) != nil {
				edges = append(edges, e)
				if dfs(h) {
					return true
				}
				edges = edges[:len(edges)-1]
			}
		}
		return false
	}
	for _, t := range m.os.tasks {
		if color[t] == 0 && blockedOn(t) != nil {
			if dfs(t) {
				break
			}
		}
	}
	if len(cycle) == 0 {
		return nil
	}
	distinct := map[string]bool{}
	for _, e := range cycle {
		distinct[e.Resource] = true
	}
	if len(distinct) < 2 {
		return nil
	}
	return canonicalCycle(cycle)
}

// canonicalCycle rotates a cycle so the lexicographically smallest task
// name comes first — the same circular wait always reports identically.
func canonicalCycle(cyc []WaitEdge) []WaitEdge {
	if len(cyc) == 0 {
		return cyc
	}
	min := 0
	for i := range cyc {
		if cyc[i].Task < cyc[min].Task {
			min = i
		}
	}
	return append(append([]WaitEdge(nil), cyc[min:]...), cyc[:min]...)
}

// ---------------------------------------------------------------------------
// OS-level diagnosis.

// Diagnosis returns the first runtime diagnosis recorded on this instance
// (nil if the run was diagnosis-clean so far).
func (os *OS) Diagnosis() *DiagnosisError { return os.diagnosis }

// DiagnoseNow inspects the current task states on demand — e.g.
// post-mortem after a RunUntil horizon left tasks unfinished — and
// returns a diagnosis, or nil when no alive task is blocked on a peer.
// Unlike the automatic detection points it does not record or emit
// anything.
func (os *OS) DiagnoseNow() *DiagnosisError { return os.diagnoseStall() }

// recordDiagnosis stores the first diagnosis and fans it out to
// DiagnosisObserver implementations.
func (os *OS) recordDiagnosis(d *DiagnosisError) {
	if os.diagnosis == nil {
		os.diagnosis = d
	}
	for _, o := range os.observers {
		if do, ok := o.(DiagnosisObserver); ok {
			do.OnDiagnosis(d.At, d)
		}
	}
}

// diagnoseStall builds the structural diagnosis of the current blockage:
// nil when no alive task is blocked on a peer; otherwise a deadlock (with
// the exact cycle) or a stall listing every blocked task and site.
// Tasks whose process is a daemon are not stranded workload — an OSEK
// personality parks every task in SUSPENDED between activations on a
// daemon process, exactly like the kernel's own liveness rule — so they
// never appear in a stall report (a genuine cycle through one would
// still surface via findCycle on the non-daemon waiters).
func (os *OS) diagnoseStall() *DiagnosisError {
	var blocked []WaitEdge
	for _, t := range os.tasks {
		if !t.state.Alive() || !isBlockedState(t.state) {
			continue
		}
		if t.proc != nil && t.proc.Daemon() {
			continue
		}
		e := WaitEdge{Task: t.name, Resource: os.blockSiteOf(t)}
		if r := os.monitor.waiting[t]; r != nil {
			if h := r.soleHolder(); h != nil && h != t {
				e.Holder = h.name
			}
		}
		blocked = append(blocked, e)
	}
	if len(blocked) == 0 {
		return nil
	}
	d := &DiagnosisError{PE: os.name, Kind: DiagStall, At: os.k.Now(), Blocked: blocked}
	if cyc := os.monitor.findCycle(); len(cyc) > 0 {
		d.Kind = DiagDeadlock
		d.Cycle = cyc
	}
	return d
}

// blockSiteOf names a blocked task's blocking site: the monitored
// resource if one is registered, the RTOS event for bare EventWait, or
// the waiting state's reason.
func (os *OS) blockSiteOf(t *Task) string {
	if r := os.monitor.waiting[t]; r != nil {
		return r.Site()
	}
	if t.blockSite != "" && t.state == TaskWaitingEvent {
		return t.blockSite
	}
	return blockReasonFor(t.state).String()
}

// allTasksDone reports whether every created task has terminated.
func (os *OS) allTasksDone() bool {
	if len(os.tasks) == 0 {
		return false
	}
	for _, t := range os.tasks {
		if t.state.Alive() {
			return false
		}
	}
	return true
}

// EnableWatchdog spawns a daemon process that checks dispatch progress
// every window of simulated time. If no dispatch happened for a full
// window it reports either the hidden stall (when only the watchdog's own
// timer keeps the simulation alive: the structural deadlock/stall
// diagnosis of the kernel-stall path) or a starvation (runnable tasks but
// no dispatch). The window must exceed the longest legitimate
// uninterrupted CPU occupancy of the model, or long delays under
// non-preemptive policies are misreported. The watchdog exits once all
// tasks terminate; it is idempotent per instance.
//
// Starvation is only declared after two consecutive progress-free
// checks: a timer wake in the very instant of a check can make a task
// ready before the scheduler has run, and a single sample cannot tell
// that boundary race from real starvation. The hidden-stall check stays
// immediate — with no pending timers nothing can change.
func (os *OS) EnableWatchdog(window sim.Time) {
	if window <= 0 || os.watchdogOn {
		return
	}
	os.watchdogOn = true
	pr := os.k.Spawn("watchdog:"+os.name, func(p *sim.Proc) {
		last := ^uint64(0)
		starving := false
		for {
			p.WaitFor(window)
			if os.allTasksDone() {
				return
			}
			cur := os.progress
			if cur != last {
				last, starving = cur, false
				continue
			}
			d := os.watchdogDiagnose(window)
			if d == nil {
				starving = false
				continue
			}
			if d.Kind == DiagStarvation && !starving {
				starving = true
				continue
			}
			os.recordDiagnosis(d)
			os.k.Fail(d)
			return
		}
	})
	pr.SetDaemon(true)
}

// watchdogDiagnose decides what a progress-free window means.
func (os *OS) watchdogDiagnose(window sim.Time) *DiagnosisError {
	// Hidden stall: nothing runnable and no timer other than the
	// watchdog's own (just fired, not yet re-armed) — without the watchdog
	// the kernel itself would have reported the stall.
	if os.rq.Len() == 0 && os.current == nil && os.k.PendingTimers() == 0 {
		return os.diagnoseStall()
	}
	// Starvation: runnable work exists but nothing was dispatched for a
	// full window.
	if os.rq.Len() > 0 {
		d := &DiagnosisError{PE: os.name, Kind: DiagStarvation,
			At: os.k.Now(), Window: window}
		holder := ""
		if os.current != nil {
			holder = os.current.name
		}
		for _, t := range os.tasks {
			if t.state == TaskReady {
				d.Blocked = append(d.Blocked,
					WaitEdge{Task: t.name, Resource: "cpu", Holder: holder})
			}
		}
		return d
	}
	return nil
}
