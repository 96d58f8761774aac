package channel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// SemaphoreState is a counting semaphore's state and transitions (see
// core.Channel), shared by both execution engines: an acquire at count
// zero waits on the semaphore's condition and re-checks after every
// wake-up.
type SemaphoreState struct {
	count int
	res   *core.Resource
}

// ValidateSemaphore rejects a negative initial count, naming the channel:
// the rule every personality and front end applies.
func ValidateSemaphore(name string, initial int) error {
	if initial < 0 {
		return fmt.Errorf("channel: semaphore %q initial count %d < 0", name, initial)
	}
	return nil
}

// NewSemaphoreState validates the initial count and registers the
// semaphore with the monitor m (nil: untracked).
func NewSemaphoreState(m *core.Monitor, name string, initial int) (SemaphoreState, error) {
	if err := ValidateSemaphore(name, initial); err != nil {
		return SemaphoreState{}, err
	}
	return SemaphoreState{count: initial, res: m.NewResource(name, "semaphore", false)}, nil
}

// Value returns the current count (non-blocking snapshot).
func (s *SemaphoreState) Value() int { return s.count }

// TryAcquire takes a unit for task t if one is left. The hold it records
// ends t's wait, if any.
func (s *SemaphoreState) TryAcquire(t *core.Task) bool {
	if s.count == 0 {
		return false
	}
	s.count--
	s.res.AcquireTask(t)
	return true
}

// Release returns a unit from task t (nil: an interrupt handler).
func (s *SemaphoreState) Release(t *core.Task) {
	s.count++
	s.res.ReleaseTask(t)
}

// Step performs OpAcquire or OpRelease for task t.
func (s *SemaphoreState) Step(now sim.Time, t *core.Task, op core.ChanOp, val int64, again bool) (int64, core.Verdict) {
	switch {
	case op == core.OpRelease:
		s.Release(t)
		return val, core.Verdict{Notify: true}
	case s.TryAcquire(t):
		return val, core.Verdict{}
	case !again:
		s.res.BlockTask(now, t)
	}
	return val, core.Verdict{Wait: true}
}

// State writes or reads the count for a checkpoint.
func (s *SemaphoreState) State(c *core.StateCodec) {
	c.Line("cs %d", &s.count)
	if s.count < 0 {
		c.Failf("semaphore count %d < 0", s.count)
	}
}

// Semaphore is a counting semaphore — the channel the paper's bus-driver
// example uses between interrupt handler and driver task ("the interrupt
// handler ISR for external events signals the main bus driver through a
// semaphore channel sem", Figure 3).
type Semaphore struct {
	SemaphoreState
	name string
	cond Cond
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(f Factory, name string, initial int) *Semaphore {
	st, err := NewSemaphoreState(monitorOf(f), name, initial)
	if err != nil {
		panic(err.Error())
	}
	return &Semaphore{SemaphoreState: st, name: name, cond: f.NewCond(name + ".sem")}
}

// Name returns the semaphore's name.
func (s *Semaphore) Name() string { return s.name }

// Acquire decrements the count, blocking while it is zero.
func (s *Semaphore) Acquire(p *sim.Proc) {
	if s.TryAcquire(p) {
		return
	}
	t := s.res.TaskOf(p)
	for again := false; ; again = true {
		if _, vd := s.Step(p.Now(), t, core.OpAcquire, 0, again); !vd.Wait {
			return
		}
		s.cond.Wait(p)
	}
}

// TryAcquire decrements the count if positive and reports success.
func (s *Semaphore) TryAcquire(p *sim.Proc) bool {
	return s.SemaphoreState.TryAcquire(s.res.TaskOf(p))
}

// Release increments the count and wakes waiters. It may be called from
// interrupt handlers (the paper's ISR-to-driver signalling path).
func (s *Semaphore) Release(p *sim.Proc) {
	s.SemaphoreState.Release(s.res.TaskOf(p))
	s.cond.Notify(p)
}

// Mutex is a binary lock with owner tracking.
type Mutex struct {
	name   string
	cond   Cond
	locked bool
	owner  *sim.Proc
	res    *core.Resource
}

// NewMutex creates an unlocked mutex.
func NewMutex(f Factory, name string) *Mutex {
	return &Mutex{name: name, cond: f.NewCond(name + ".mtx"),
		res: monitorOf(f).NewResource(name, "mutex", true)}
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name }

// Lock acquires the mutex, blocking while another process holds it.
// Recursive locking is an error and panics (it would self-deadlock).
func (m *Mutex) Lock(p *sim.Proc) {
	if m.locked && m.owner == p {
		panic(fmt.Sprintf("channel: recursive Lock of %q by %s", m.name, p.Name()))
	}
	if m.locked {
		m.res.Block(p)
		for m.locked {
			m.cond.Wait(p)
		}
	}
	m.locked = true
	m.owner = p
	m.res.Acquire(p)
}

// Unlock releases the mutex; only the owner may unlock.
func (m *Mutex) Unlock(p *sim.Proc) {
	if !m.locked || m.owner != p {
		panic(fmt.Sprintf("channel: Unlock of %q by non-owner %s", m.name, p.Name()))
	}
	m.locked = false
	m.owner = nil
	m.res.Release(p)
	m.cond.Notify(p)
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }
