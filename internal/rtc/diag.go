package rtc

import (
	"sort"

	"repro/internal/core"
)

// monitor is core.Monitor ported to engine tasks: the wait-for graph
// feeding deadlock/stall/starvation diagnosis. It produces the same
// *core.DiagnosisError values as the goroutine kernel, so callers
// compare diagnoses across engines directly.
type monitor struct {
	os        *osState
	resources []*resource
}

// holderCount is one task's hold count on a resource. Resources hold at
// most a couple of tasks at a time, so an intrusive slice plus linear
// scan replaces the goroutine kernel's map — same observable state (a
// set of distinct tasks with counts), none of the hashing on the
// block/unblock hot path.
type holderCount struct {
	t *task
	n int
}

// resource is one node class of the wait-for graph. The engine's
// workloads only build non-exclusive resources (queues, semaphores,
// mailboxes), so the exclusive-ownership immediate cycle check of the
// goroutine kernel has no counterpart here.
type resource struct {
	mon     *monitor
	name    string
	kind    string
	holders []holderCount
}

func (mon *monitor) newResource(name, kind string) *resource {
	r := &resource{mon: mon, name: name, kind: kind}
	mon.resources = append(mon.resources, r)
	return r
}

func (r *resource) site() string { return r.kind + ":" + r.name }

// The four bookkeeping calls mirror core.Resource exactly; calls from
// machines without a task (ISRs, the watchdog) are no-ops. The waiting
// map of the goroutine monitor becomes an intrusive task field.

func (r *resource) block(m *machine) {
	if t := m.task; t != nil {
		t.waitingRes = r
	}
}

func (r *resource) unblock(m *machine) {
	if t := m.task; t != nil {
		t.waitingRes = nil
	}
}

func (r *resource) acquire(m *machine) {
	if t := m.task; t != nil {
		t.waitingRes = nil
		for i := range r.holders {
			if r.holders[i].t == t {
				r.holders[i].n++
				return
			}
		}
		r.holders = append(r.holders, holderCount{t: t, n: 1})
	}
}

func (r *resource) release(m *machine) {
	if t := m.task; t != nil {
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
}

func (r *resource) soleHolder() *task {
	if len(r.holders) != 1 {
		return nil
	}
	return r.holders[0].t
}

func (r *resource) sortedHolders() []*task {
	hs := make([]*task, 0, len(r.holders))
	for _, h := range r.holders {
		if h.t.state.Alive() {
			hs = append(hs, h.t)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].id < hs[j].id })
	return hs
}

func isBlockedState(s core.TaskState) bool {
	switch s {
	case core.TaskWaitingEvent, core.TaskWaitingMutex, core.TaskWaitingChildren, core.TaskSuspended:
		return true
	}
	return false
}

func blockReasonFor(s core.TaskState) core.BlockReason {
	switch s {
	case core.TaskWaitingEvent:
		return core.BlockEvent
	case core.TaskWaitingMutex:
		return core.BlockMutex
	case core.TaskWaitingChildren:
		return core.BlockChildren
	case core.TaskWaitingPeriod:
		return core.BlockPeriod
	case core.TaskSuspended:
		return core.BlockSleep
	default:
		return core.BlockNone
	}
}

func canonicalCycle(cyc []core.WaitEdge) []core.WaitEdge {
	if len(cyc) == 0 {
		return cyc
	}
	min := 0
	for i := range cyc {
		if cyc[i].Task < cyc[min].Task {
			min = i
		}
	}
	return append(append([]core.WaitEdge(nil), cyc[min:]...), cyc[:min]...)
}

// findCycle is core.Monitor.findCycle: a deterministic DFS over the
// wait-for graph; a circular wait must span at least two distinct
// resources to count.
func (mon *monitor) findCycle() []core.WaitEdge {
	color := make(map[*task]int)
	var stack []*task
	var edges []core.WaitEdge
	var cycle []core.WaitEdge

	blockedOn := func(t *task) *resource {
		if !t.state.Alive() || !isBlockedState(t.state) {
			return nil
		}
		return t.waitingRes
	}
	var dfs func(t *task) bool
	dfs = func(t *task) bool {
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
			e := core.WaitEdge{Task: t.name, Resource: r.site(), Holder: h.name}
			if color[h] == 1 {
				idx := 0
				for i, s := range stack {
					if s == h {
						idx = i
						break
					}
				}
				cycle = append(append([]core.WaitEdge(nil), edges[idx:]...), e)
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
	for _, t := range mon.os.tasks {
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

// diagnoseStall is core.OS.diagnoseStall: nil when no alive task is
// blocked on a peer, otherwise a stall report upgraded to a deadlock
// when the wait-for graph has a cycle.
func (os *osState) diagnoseStall() *core.DiagnosisError {
	var blocked []core.WaitEdge
	for _, t := range os.tasks {
		if !t.state.Alive() || !isBlockedState(t.state) {
			continue
		}
		if t.mach != nil && t.mach.daemon {
			continue
		}
		e := core.WaitEdge{Task: t.name, Resource: os.blockSiteOf(t)}
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
	d := &core.DiagnosisError{PE: os.name, Kind: core.DiagStall, At: os.k.now, Blocked: blocked}
	if cyc := os.monitor.findCycle(); len(cyc) > 0 {
		d.Kind = core.DiagDeadlock
		d.Cycle = cyc
	}
	return d
}

func (os *osState) blockSiteOf(t *task) string {
	if r := t.waitingRes; r != nil {
		return r.site()
	}
	if t.blockSite != "" && t.state == core.TaskWaitingEvent {
		return t.blockSite
	}
	return blockReasonFor(t.state).String()
}

func (os *osState) allTasksDone() bool {
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

// watchdogDiagnose is core.OS.watchdogDiagnose: classify a
// progress-free window as a hidden stall or a starvation.
func (os *osState) watchdogDiagnose(window Time) *core.DiagnosisError {
	if len(os.ready) == 0 && os.current == nil && os.k.pendingTimers() == 0 {
		return os.diagnoseStall()
	}
	if len(os.ready) > 0 {
		d := &core.DiagnosisError{PE: os.name, Kind: core.DiagStarvation,
			At: os.k.now, Window: window}
		holder := ""
		if os.current != nil {
			holder = os.current.name
		}
		for _, t := range os.tasks {
			if t.state == core.TaskReady {
				d.Blocked = append(d.Blocked,
					core.WaitEdge{Task: t.name, Resource: "cpu", Holder: holder})
			}
		}
		return d
	}
	return nil
}

// fWatchdogBody is core.OS.EnableWatchdog's daemon loop as a machine
// body: its periodic timer keeps firing (and so keeps advancing
// simulated time) until every task terminates, exactly like the
// goroutine watchdog — which is what makes End times match.
type fWatchdogBody struct {
	os       *osState
	window   Time
	last     uint64
	starving bool
	pc       int
}

func (f *fWatchdogBody) step(m *machine) status {
	os := f.os
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			m.sleep(f.window)
			return statBlocked
		case 1:
			if os.allTasksDone() {
				return statDone
			}
			cur := os.progress
			if cur != f.last {
				f.last, f.starving = cur, false
				f.pc = 0
				continue
			}
			d := os.watchdogDiagnose(f.window)
			if d == nil {
				f.starving = false
				f.pc = 0
				continue
			}
			if d.Kind == core.DiagStarvation && !f.starving {
				f.starving = true
				f.pc = 0
				continue
			}
			os.recordDiagnosis(d)
			os.k.fail(d)
			return statDone
		}
	}
}
