package osek

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// ResID identifies a declared resource.
type ResID int

// Res is an OSEK resource governed by the immediate priority ceiling
// protocol (OSEK OS 2.2.3 §8, OSEK_PRIORITY_CEILING): GetResource raises
// the caller to the resource's ceiling priority — the highest base
// priority among its statically declared accessors — so no task that
// could contend for the resource is ever dispatched while it is held.
// The protocol makes resource deadlock structurally impossible, which
// the fault-campaign regression pins against the semaphore-ring cycle.
type Res struct {
	sys     *System
	id      ResID
	name    string
	ceiling int
	holder  *TCB
	access  map[TaskID]bool
	res     *core.Resource
}

// DeclareResource declares a resource with its accessor set before
// Start; the ceiling priority is computed from the accessors' base
// priorities (smaller value = higher priority). E_OS_ID when an accessor
// is invalid, E_OS_VALUE for an empty accessor set.
func (s *System) DeclareResource(name string, accessors ...TaskID) (ResID, StatusType) {
	if s.started {
		return -1, EOsState
	}
	if len(accessors) == 0 {
		return -1, EOsValue
	}
	r := &Res{sys: s, id: ResID(len(s.res)), name: name,
		access: make(map[TaskID]bool, len(accessors)),
		res:    s.os.Monitor().NewResource(name, "resource", true)}
	first := true
	for _, id := range accessors {
		tc, ok := s.tcb(id)
		if !ok {
			return -1, EOsID
		}
		r.access[id] = true
		if first || tc.decl.Prio < r.ceiling {
			r.ceiling = tc.decl.Prio
		}
		first = false
	}
	s.res = append(s.res, r)
	return r.id, EOk
}

func (s *System) resource(id ResID) (*Res, bool) {
	if id < 0 || int(id) >= len(s.res) {
		return nil, false
	}
	return s.res[id], true
}

// GetResource occupies a resource (§13.4.3.1) and immediately boosts the
// caller to the ceiling priority. E_OS_ID for an invalid resource;
// E_OS_ACCESS when the caller is not a declared accessor, already
// occupies the resource (nested re-entry), or its current priority is
// above the ceiling — all the specification's misuse cases.
func (s *System) GetResource(p *sim.Proc, id ResID) StatusType {
	tc := s.currentTCB(p)
	if tc == nil {
		return EOsCallevel
	}
	r, ok := s.resource(id)
	if !ok {
		return EOsID
	}
	if !r.access[tc.id] || r.holder == tc {
		return EOsAccess
	}
	if tc.decl.Prio < r.ceiling {
		// The specification checks the STATICALLY assigned priority, not
		// the current one: a task already boosted by an outer resource may
		// legally nest into a resource with a lower ceiling.
		return EOsAccess
	}
	r.holder = tc
	tc.resStack = append(tc.resStack, r)
	tc.oldPrio = append(tc.oldPrio, tc.task.Priority())
	if r.ceiling < tc.task.Priority() {
		// Immediate ceiling boost; the new priority applies at the next
		// dispatch decision.
		tc.task.SetPriority(r.ceiling)
	}
	r.res.Acquire(p)
	return EOk
}

// ReleaseResource releases the caller's most recently occupied resource
// (§13.4.3.2): releases must be LIFO-nested. E_OS_NOFUNC when the
// resource is not occupied by the caller or an inner resource is still
// held; the priority reverts to the value saved at GetResource and a
// scheduling decision follows.
func (s *System) ReleaseResource(p *sim.Proc, id ResID) StatusType {
	tc := s.currentTCB(p)
	if tc == nil {
		return EOsCallevel
	}
	r, ok := s.resource(id)
	if !ok {
		return EOsID
	}
	n := len(tc.resStack)
	if n == 0 || tc.resStack[n-1] != r {
		return EOsNofunc
	}
	tc.resStack = tc.resStack[:n-1]
	restore := tc.oldPrio[n-1]
	tc.oldPrio = tc.oldPrio[:n-1]
	r.holder = nil
	r.res.Release(p)
	if restore != tc.task.Priority() {
		tc.task.SetPriority(restore)
		s.os.Reschedule(p)
	}
	return EOk
}

// CeilingOf returns the ceiling priority of a declared resource.
func (s *System) CeilingOf(id ResID) (int, StatusType) {
	r, ok := s.resource(id)
	if !ok {
		return 0, EOsID
	}
	return r.ceiling, EOk
}
