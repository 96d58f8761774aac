package itron

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Semaphore is a µITRON counting semaphore (cre_sem/wai_sem/sig_sem).
// Release is a direct handoff: sig_sem with waiters grants the resource
// to the head of the wait queue (FIFO under TA_TFIFO regardless of task
// priority — a genuine divergence from the generic personality, whose
// notify-all/recheck discipline grants in policy order). Its Step is the
// core.Channel both execution engines drive (waits forever); the
// service calls add timeouts and forced releases on the goroutine kernel.
type Semaphore struct {
	k     *Kernel
	name  string
	site  string
	count int
	max   int
	wq    waitQueue
	res   *core.Resource
}

// CreSem creates a semaphore with initial count init and maximum count
// max (cre_sem). E_PAR for a malformed definition.
func (k *Kernel) CreSem(name string, init, max int, attr Attr) (*Semaphore, ER) {
	if init < 0 || max < 1 || max > TMaxSemCnt || init > max {
		return nil, EPAR
	}
	return &Semaphore{k: k, name: name, site: "semaphore:" + name,
		count: init, max: max, wq: newWaitQueue(attr),
		res: k.s.Monitor().NewResource(name, "semaphore", false)}, EOK
}

// Name returns the semaphore's name.
func (s *Semaphore) Name() string { return s.name }

// Count returns the current resource count (ref_sem snapshot).
func (s *Semaphore) Count() int { return s.count }

// Step performs OpAcquire (wai_sem) or OpRelease (sig_sem) for task t.
func (s *Semaphore) Step(now sim.Time, t *core.Task, op core.ChanOp, val int64, again bool) (int64, core.Verdict) {
	switch {
	case op == core.OpRelease:
		s.res.ReleaseTask(t)
		if tc := s.wq.pop(); tc != nil {
			return val, core.Verdict{Wake: tc.task}
		}
		if s.count >= s.max {
			return val, core.Verdict{Err: fmt.Errorf("itron: sig_sem %q: %v", s.name, EQOVR)}
		}
		s.count++
	case again: // direct handoff from a release: the count was never incremented
		s.res.AcquireTask(t)
	case !s.take(t):
		tc := s.k.tcbOf(t)
		s.wq.enqueue(tc)
		s.res.BlockTask(now, t)
		return val, core.Verdict{Suspend: s.site}
	}
	return val, core.Verdict{}
}

func (s *Semaphore) take(t *core.Task) bool {
	if s.count == 0 {
		return false
	}
	s.count--
	s.res.AcquireTask(t)
	return true
}

// State writes or reads the count and the wait queue for a checkpoint. A
// release hands a unit to the head waiter directly, so units and waiters
// never coexist.
func (s *Semaphore) State(c *core.StateCodec) {
	c.Line("is %d", &s.count)
	if s.count < 0 || s.count > s.max {
		c.Failf("semaphore %s count %d outside 0..%d", s.name, s.count, s.max)
	}
	s.k.waiters(c, "isw", &s.wq)
	if s.count > 0 && !s.wq.empty() {
		c.Failf("semaphore %s count %d with %d waiters", s.name, s.count, len(s.wq.q))
	}
}

// Wai acquires one resource, waiting forever (wai_sem).
func (s *Semaphore) Wai(p *sim.Proc) ER { return s.TWai(p, TMOFevr) }

// Pol acquires one resource without waiting (pol_sem): E_TMOUT when none
// is available.
func (s *Semaphore) Pol(p *sim.Proc) ER { return s.TWai(p, TMOPol) }

// TWai acquires one resource with a timeout (twai_sem): E_TMOUT on
// expiry, E_RLWAI when released by RelWai.
func (s *Semaphore) TWai(p *sim.Proc, tmo sim.Time) ER {
	tc, er := s.k.self(p)
	if er != EOK {
		return er
	}
	if tmo == TMOPol {
		if s.take(tc.task) {
			return EOK
		}
		return ETMOUT
	}
	_, v := s.Step(p.Now(), tc.task, core.OpAcquire, 0, false)
	if v.Suspend == "" {
		return EOK
	}
	woken := s.k.os.SuspendTimeout(p, core.TaskWaitingEvent, v.Suspend, tmo,
		func() { s.wq.remove(tc) })
	if tc.relwai {
		tc.relwai = false
		s.res.Unblock(p)
		return ERLWAI
	}
	if !woken {
		s.res.Unblock(p)
		return ETMOUT
	}
	s.Step(p.Now(), tc.task, core.OpAcquire, 0, true)
	return EOK
}

// Sig returns one resource (sig_sem): the head waiter is released
// directly, or the count is incremented — E_QOVR past the maximum.
// Callable from ISRs.
func (s *Semaphore) Sig(p *sim.Proc) ER {
	_, v := s.Step(p.Now(), s.res.TaskOf(p), core.OpRelease, 0, false)
	if v.Wake != nil {
		s.k.os.Resume(p, v.Wake)
	}
	if v.Err != nil {
		return EQOVR
	}
	return EOK
}
