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
	"slices"
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

// Monitor maintains the wait-for graph of one scheduler instance: which
// task is blocked on which resource, and which tasks hold each resource.
// The synchronization primitives feed it; every Sched has one (see
// Sched.Monitor).
type Monitor struct {
	s         *Sched
	resources []*Resource
}

// Monitor returns the instance's wait-for-graph monitor.
func (s *Sched) Monitor() *Monitor { return &s.monitor }

// NewResource registers a diagnosable resource. kind is a short class
// name ("mutex", "semaphore", "queue", ...); exclusive marks
// ownership-style resources (single determinate holder), which enable the
// immediate cycle check at block time. A nil monitor (a channel outside
// any RTOS instance) returns a nil resource, which tracks nothing.
func (m *Monitor) NewResource(name, kind string, exclusive bool) *Resource {
	if m == nil {
		return nil
	}
	r := &Resource{m: m, name: name, kind: kind, exclusive: exclusive}
	m.resources = append(m.resources, r)
	return r
}

// holderCount is one task's acquired-but-not-released count on a
// resource. Resources hold at most a few tasks at a time, so a short
// slice with a linear scan keeps the bookkeeping free of hashing.
type holderCount struct {
	t *Task
	n int
}

// Resource is one node class of the wait-for graph. All methods are
// nil-receiver safe, so channels built on a non-RTOS factory can carry a
// nil resource at zero cost.
type Resource struct {
	m         *Monitor
	name      string
	kind      string
	exclusive bool
	holders   []holderCount
}

// Site returns the blocking-site label, "kind:name".
func (r *Resource) Site() string { return r.kind + ":" + r.name }

// TaskOf resolves the calling process to its task on r's OS instance:
// nil for ISRs, spec-level processes and unmonitored (nil) resources.
// Channels pass the result to the *Task methods below, which treat a nil
// task as a no-op.
func (r *Resource) TaskOf(p *sim.Proc) *Task {
	if r == nil {
		return nil
	}
	return r.m.s.taskOf(p)
}

// Block registers the calling process's task as blocked on r and, for
// exclusive resources, runs the immediate circular-wait check. Pair with
// Unblock (or Acquire) when the wait is over. Calls from processes that
// are not tasks of the monitored OS (ISRs, spec-level processes) are
// no-ops.
func (r *Resource) Block(p *sim.Proc) {
	if d := r.BlockTask(p.Now(), r.TaskOf(p)); d != nil {
		p.Kernel().Fail(d)
	}
}

// Unblock removes the calling process's task from the waiter set.
func (r *Resource) Unblock(p *sim.Proc) { r.UnblockTask(r.TaskOf(p)) }

// Acquire records the calling process's task as a holder of r (and ends
// any registered wait).
func (r *Resource) Acquire(p *sim.Proc) { r.AcquireTask(r.TaskOf(p)) }

// Release drops one hold of the calling process's task on r. Releases by
// processes that never acquired (interrupt handlers signalling a
// semaphore) are no-ops.
func (r *Resource) Release(p *sim.Proc) { r.ReleaseTask(r.TaskOf(p)) }

// BlockTask records t as blocked on r at now. For an exclusive resource
// it walks the ownership chain: if that leads back to t, the circular
// wait is definite, and the recorded deadlock is returned for the engine
// to fail the run with. A nil t (no task) is a no-op.
func (r *Resource) BlockTask(now sim.Time, t *Task) *DiagnosisError {
	if r == nil || t == nil {
		return nil
	}
	t.waitingRes = r
	if !r.exclusive {
		return nil
	}
	var cyc []WaitEdge
	cur, rr := t, r
	for {
		h := rr.soleHolder()
		if h == nil || !h.state.Alive() {
			return nil
		}
		cyc = append(cyc, WaitEdge{Task: cur.name, Resource: rr.Site(), Holder: h.name})
		if h == t {
			s := r.m.s
			d := &DiagnosisError{PE: s.name, Kind: DiagDeadlock, At: now, Cycle: canonicalCycle(cyc)}
			s.RecordDiagnosis(d)
			return d
		}
		next := h.waitingRes
		if next == nil || !next.exclusive || !isBlockedState(h.state) {
			return nil
		}
		cur, rr = h, next
	}
}

// UnblockTask ends t's registered wait (nil t: no-op).
func (r *Resource) UnblockTask(t *Task) {
	if r != nil && t != nil {
		t.waitingRes = nil
	}
}

// AcquireTask records t as a holder of r and ends any registered wait
// (nil t: no-op).
func (r *Resource) AcquireTask(t *Task) {
	if r == nil || t == nil {
		return
	}
	t.waitingRes = nil
	for i := range r.holders {
		if r.holders[i].t == t {
			r.holders[i].n++
			return
		}
	}
	r.holders = append(r.holders, holderCount{t: t, n: 1})
}

// ReleaseTask drops one hold of t on r (nil t, or a t that never
// acquired: no-op).
func (r *Resource) ReleaseTask(t *Task) {
	if r == nil {
		return
	}
	for i := range r.holders {
		if r.holders[i].t == t {
			if r.holders[i].n > 1 {
				r.holders[i].n--
			} else {
				last := len(r.holders) - 1
				r.holders[i] = r.holders[last]
				r.holders = r.holders[:last]
			}
			return
		}
	}
}

// soleHolder returns the single holding task of an exclusively held
// resource, nil otherwise.
func (r *Resource) soleHolder() *Task {
	if len(r.holders) != 1 {
		return nil
	}
	return r.holders[0].t
}

// sortedHolders returns the live holders in task-creation order, so graph
// walks are deterministic.
func (r *Resource) sortedHolders() []*Task {
	hs := make([]*Task, 0, len(r.holders))
	for _, h := range r.holders {
		if h.t.state.Alive() {
			hs = append(hs, h.t)
		}
	}
	slices.SortFunc(hs, func(a, b *Task) int { return a.id - b.id })
	return hs
}

// taskOf resolves a simulation process to its task on this instance (nil
// for ISRs and foreign processes). Channel operations mostly come from
// the running task, which is checked first.
func (s *Sched) taskOf(p *sim.Proc) *Task {
	if t := s.current; t != nil && t.proc == p {
		return t
	}
	for _, t := range s.tasks {
		if t.proc == p {
			return t
		}
	}
	return nil
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
		return t.waitingRes
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
	for _, t := range m.s.tasks {
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
// Scheduler-level diagnosis.

// Diagnosis returns the first runtime diagnosis recorded on this instance
// (nil if the run was diagnosis-clean so far).
func (s *Sched) Diagnosis() *DiagnosisError { return s.diagnosis }

// RecordDiagnosis stores the first diagnosis and fans it out to
// DiagnosisObserver implementations.
func (s *Sched) RecordDiagnosis(d *DiagnosisError) {
	if s.diagnosis == nil {
		s.diagnosis = d
	}
	for _, o := range s.observers {
		if do, ok := o.Observer.(DiagnosisObserver); ok {
			do.OnDiagnosis(d.At, d)
		}
	}
}

// AllTasksDone reports whether tasks were created and every one has
// terminated.
func (s *Sched) AllTasksDone() bool {
	if len(s.tasks) == 0 {
		return false
	}
	for _, t := range s.tasks {
		if t.state.Alive() {
			return false
		}
	}
	return true
}

// DiagnoseStall builds the structural diagnosis of the current blockage
// at now: nil when no alive task is blocked on a peer; otherwise a
// deadlock (with the exact cycle) or a stall listing every blocked task
// and site. Tasks for which daemon reports true are not stranded
// workload — an OSEK personality parks every task in SUSPENDED between
// activations on a daemon process, exactly like the kernel's own
// liveness rule — so they never appear in a stall report (a genuine
// cycle through one would still surface via findCycle on the non-daemon
// waiters).
func (s *Sched) DiagnoseStall(now sim.Time, daemon func(*Task) bool) *DiagnosisError {
	var blocked []WaitEdge
	for _, t := range s.tasks {
		if !t.state.Alive() || !isBlockedState(t.state) || daemon(t) {
			continue
		}
		e := WaitEdge{Task: t.name, Resource: t.blockSiteLabel()}
		if r := t.waitingRes; r != nil {
			if h := r.soleHolder(); h != nil && h != t {
				e.Holder = h.name
			}
		}
		blocked = append(blocked, e)
	}
	if len(blocked) == 0 {
		return nil
	}
	d := &DiagnosisError{PE: s.name, Kind: DiagStall, At: now, Blocked: blocked}
	if cyc := s.monitor.findCycle(); len(cyc) > 0 {
		d.Kind = DiagDeadlock
		d.Cycle = cyc
	}
	return d
}

// blockSiteLabel names a blocked task's blocking site: the monitored
// resource if one is registered, the labelled site of an event wait, or
// the waiting state's reason.
func (t *Task) blockSiteLabel() string {
	if r := t.waitingRes; r != nil {
		return r.Site()
	}
	if t.blockSite != "" && t.state == TaskWaitingEvent {
		return t.blockSite
	}
	return blockReasonFor(t.state).String()
}

// WatchdogDiagnose decides what a progress-free watchdog window means at
// now. pendingTimers counts the engine's armed timers other than the
// watchdog's own; daemon is as for DiagnoseStall.
func (s *Sched) WatchdogDiagnose(now, window sim.Time, pendingTimers int, daemon func(*Task) bool) *DiagnosisError {
	// Hidden stall: nothing runnable and no timer other than the
	// watchdog's own (just fired, not yet re-armed) — without the watchdog
	// the kernel itself would have reported the stall.
	if len(s.rq) == 0 && s.running() == 0 && pendingTimers == 0 {
		return s.DiagnoseStall(now, daemon)
	}
	// Starvation: runnable work exists but nothing was dispatched for a
	// full window. The CPU's holder is named on one CPU only.
	if len(s.rq) > 0 {
		d := &DiagnosisError{PE: s.name, Kind: DiagStarvation, At: now, Window: window}
		holder := ""
		if s.current != nil && s.cpus == nil {
			holder = s.current.name
		}
		for _, t := range s.tasks {
			if t.state == TaskReady {
				d.Blocked = append(d.Blocked,
					WaitEdge{Task: t.name, Resource: "cpu", Holder: holder})
			}
		}
		return d
	}
	return nil
}

// Watchdog is the verdict rule every watchdog loop shares (this package's
// OS and the run-to-completion engine): the dispatch stamp
// seen at the previous check and whether that check already saw
// starvation. Each loop keeps only its own sleep.
type Watchdog struct {
	Last     uint64
	Starving bool
}

// NewWatchdog returns the state of a watchdog that has not checked yet.
func NewWatchdog() Watchdog { return Watchdog{Last: ^uint64(0)} }

// Check judges one elapsed window: progress is the current dispatch
// stamp and diagnose classifies a progress-free window. It returns the
// diagnosis to fail the run with, or nil to keep watching.
//
// Starvation is only declared after two consecutive progress-free
// checks: a timer wake in the very instant of a check can make a task
// ready before the scheduler has run, and a single sample cannot tell
// that boundary race from real starvation. The hidden-stall check stays
// immediate — with no pending timers nothing can change.
func (w *Watchdog) Check(progress uint64, diagnose func() *DiagnosisError) *DiagnosisError {
	if progress != w.Last {
		w.Last, w.Starving = progress, false
		return nil
	}
	d := diagnose()
	if d == nil {
		w.Starving = false
		return nil
	}
	if d.Kind == DiagStarvation && !w.Starving {
		w.Starving = true
		return nil
	}
	return d
}

// DiagnoseNow inspects the current task states on demand — e.g.
// post-mortem after a RunUntil horizon left tasks unfinished — and
// returns a diagnosis, or nil when no alive task is blocked on a peer.
// Unlike the automatic detection points it does not record or emit
// anything.
func (os *OS) DiagnoseNow() *DiagnosisError { return os.DiagnoseStall(os.k.Now(), procDaemon) }

// procDaemon reports tasks bound to a daemon process.
func procDaemon(t *Task) bool { return t.proc != nil && t.proc.Daemon() }

// EnableWatchdog spawns a daemon process that checks dispatch progress
// every window of simulated time. If no dispatch happened for a full
// window it reports either the hidden stall (when only the watchdog's own
// timer keeps the simulation alive: the structural deadlock/stall
// diagnosis of the kernel-stall path) or a starvation (runnable tasks but
// no dispatch); see Watchdog.Check. The window must exceed the longest
// legitimate uninterrupted CPU occupancy of the model, or long delays
// under non-preemptive policies are misreported. The watchdog exits once
// all tasks terminate; it is idempotent per instance.
func (os *OS) EnableWatchdog(window sim.Time) {
	if window <= 0 || os.watchdogOn {
		return
	}
	os.watchdogOn = true
	pr := os.k.Spawn("watchdog:"+os.name, func(p *sim.Proc) {
		wd := NewWatchdog()
		diagnose := func() *DiagnosisError {
			return os.WatchdogDiagnose(p.Now(), window, os.k.PendingTimers(), procDaemon)
		}
		for {
			p.WaitFor(window)
			if os.AllTasksDone() {
				return
			}
			if d := wd.Check(os.progress, diagnose); d != nil {
				os.RecordDiagnosis(d)
				os.k.Fail(d)
				return
			}
		}
	})
	pr.SetDaemon(true)
}
