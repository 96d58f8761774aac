package core

import (
	"fmt"

	"repro/internal/sim"
)

// This file extends the paper's RTOS model with mutual-exclusion resource
// management and optional priority inheritance — the standard RTOS
// mechanism against unbounded priority inversion (cf. the Mars Pathfinder
// incident). The paper's interface covers task synchronization through
// events; resource locking with inheritance is the natural next service a
// real RTOS provides, and it maps directly onto the model's dispatcher.

// Mutex is an RTOS-level lock. With inheritance enabled, a lower-priority
// owner is temporarily boosted to the highest priority among the tasks
// blocked on the mutex, so medium-priority tasks cannot prolong a
// high-priority task's wait (bounded priority inversion).
//
// Nested locking must follow LIFO (properly nested) order for priority
// restoration to be exact; this matches the usual RTOS discipline.
type Mutex struct {
	os      *OS
	name    string
	inherit bool

	owner     *Task
	ownerBase int // owner's priority when it acquired the lock
	waiters   []*Task
	res       *Resource // wait-for-graph node for deadlock diagnosis

	// Accounting for experiments.
	contended uint64
	boosts    uint64
}

// MutexNew creates a mutex on this OS instance. inherit selects priority
// inheritance.
func (os *OS) MutexNew(name string, inherit bool) *Mutex {
	return &Mutex{os: os, name: name, inherit: inherit,
		res: os.Monitor().NewResource(name, "mutex", true)}
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name }

// Owner returns the current owner (nil if free).
func (m *Mutex) Owner() *Task { return m.owner }

// Contended returns how many Lock calls had to block.
func (m *Mutex) Contended() uint64 { return m.contended }

// Boosts returns how many priority-inheritance boosts were applied.
func (m *Mutex) Boosts() uint64 { return m.boosts }

// Lock acquires the mutex for the calling task, blocking while another
// task holds it. Recursive locking panics (it would self-deadlock).
func (m *Mutex) Lock(p *sim.Proc) {
	os := m.os
	t := os.mustCurrent(p, "Mutex.Lock")
	if m.owner == t {
		panic(fmt.Sprintf("core: recursive Lock of %q by task %q", m.name, t.name))
	}
	for m.owner != nil {
		m.contended++
		if m.inherit && t.prio < m.owner.prio {
			// Boost the owner to the blocked task's priority. If the owner
			// sits in the ready queue, its new rank takes effect at the
			// next dispatch decision below.
			m.owner.prio = t.prio
			m.boosts++
		}
		m.waiters = append(m.waiters, t)
		now := os.k.Now()
		if d := m.res.BlockTask(now, t); d != nil {
			os.k.Fail(d) // a definite circular wait
		}
		os.wake(p, os.Block(now, t, TaskWaitingMutex))
		os.waitUntilDispatched(p, t)
		// Woken as the designated next owner (or spuriously); re-check.
	}
	m.owner = t
	m.ownerBase = t.prio
	m.res.AcquireTask(t)
}

// Unlock releases the mutex; only the owner may unlock. The owner's
// priority is restored and ownership is handed to the most eligible
// waiter under the OS's scheduling policy.
func (m *Mutex) Unlock(p *sim.Proc) {
	os := m.os
	t := os.mustCurrent(p, "Mutex.Unlock")
	if m.owner != t {
		owner := "nobody"
		if m.owner != nil {
			owner = m.owner.name
		}
		panic(fmt.Sprintf("core: Unlock of %q by task %q but owner is %s",
			m.name, t.name, owner))
	}
	t.prio = m.ownerBase
	m.owner = nil
	m.res.ReleaseTask(t)
	// Drop waiters that were killed while blocked; they must neither
	// receive ownership nor block the hand-over to live waiters.
	live := m.waiters[:0]
	for _, w := range m.waiters {
		if w.state.Alive() {
			live = append(live, w)
		}
	}
	m.waiters = live
	if len(m.waiters) > 0 {
		// Hand over to the policy-preferred waiter (FIFO tie-break by
		// queue order).
		best := 0
		for i := 1; i < len(m.waiters); i++ {
			if os.policy.Less(m.waiters[i], m.waiters[best]) {
				best = i
			}
		}
		next := m.waiters[best]
		m.waiters = append(m.waiters[:best], m.waiters[best+1:]...)
		os.Ready(os.k.Now(), next)
	}
	os.decideFrom(p)
}

// TryLock acquires the mutex without blocking and reports success.
func (m *Mutex) TryLock(p *sim.Proc) bool {
	t := m.os.mustCurrent(p, "Mutex.TryLock")
	if m.owner != nil {
		return false
	}
	m.owner = t
	m.ownerBase = t.prio
	m.res.AcquireTask(t)
	return true
}
