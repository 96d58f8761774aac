package personality

import (
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/sim"
)

// osekRT maps the Runtime surface onto OSEK-style services. Task
// lifecycle uses the core dispatcher directly (ActivateTask/
// TerminateTask are the paper model's activate/terminate); communication
// uses FIFO queued messages in the style of OSEK COM, since OSEK proper
// has no blocking semaphore — its resources are the non-blocking
// ceiling-protocol locks exercised by the osek package. Grants are
// direct handoff in strict FIFO arrival order, which is where OSEK runs
// diverge observably from the generic personality's notify-and-recontend
// semantics.
type osekRT struct {
	os *core.OS
}

func newOSEK(os *core.OS) Runtime {
	// OSEK OS 2.2.3 §4.6.5: a preempted task re-enters its priority level
	// as the oldest ready task, not the newest.
	os.SetPreemptFrontReinsert(true)
	return &osekRT{os: os}
}

func (r *osekRT) Kind() string { return OSEK }
func (r *osekRT) OS() *core.OS { return r.os }

func (r *osekRT) TaskCreate(name string, typ core.TaskType, period, wcet sim.Time, prio int) *core.Task {
	return r.os.TaskCreate(name, typ, period, wcet, prio)
}

func (r *osekRT) Activate(p *sim.Proc, t *core.Task) { r.os.TaskActivate(p, t) }
func (r *osekRT) Compute(p *sim.Proc, d sim.Time)    { r.os.TimeWait(p, d) }
func (r *osekRT) EndCycle(p *sim.Proc)               { r.os.TaskEndCycle(p) }
func (r *osekRT) Terminate(p *sim.Proc)              { r.os.TaskTerminate(p) }
func (r *osekRT) Sleep(p *sim.Proc)                  { r.os.TaskSleep(p) }
func (r *osekRT) Wake(p *sim.Proc, t *core.Task)     { r.os.TaskActivate(p, t) }
func (r *osekRT) Schedule(p *sim.Proc)               { r.os.Yield(p) }

func (r *osekRT) ChangePriority(p *sim.Proc, t *core.Task, prio int) {
	// OSEK has no dynamic-priority service; the dispatcher-level change
	// models the ceiling-style boost/restore the osek package performs.
	t.SetPriority(prio)
	r.os.Reschedule(p)
}

func (r *osekRT) NewQueue(name string, capacity int) Queue {
	return &osekQueue{
		os: r.os, site: "queue:" + name, cap: capacity, buf: channel.NewRing[int64](capacity),
		res: r.os.Monitor().NewResource(name, "queue", false),
	}
}

func (r *osekRT) NewSemaphore(name string, count int) Semaphore {
	return &osekSem{
		os: r.os, site: "semaphore:" + name, count: count,
		res: r.os.Monitor().NewResource(name, "semaphore", false),
	}
}

// osekSem is a counting semaphore with FIFO direct handoff: a release
// with waiters grants the head waiter without touching the count, so
// grant order is arrival order regardless of task priority.
type osekSem struct {
	os    *core.OS
	site  string
	count int
	wq    []*core.Task
	res   *core.Resource
}

func (s *osekSem) Acquire(p *sim.Proc) {
	if s.count > 0 {
		s.count--
		s.res.Acquire(p)
		return
	}
	t := s.os.Current()
	s.wq = append(s.wq, t)
	s.res.Block(p)
	s.os.Suspend(p, core.TaskWaitingEvent, s.site)
	// The releaser removed us from the queue before the wakeup: the
	// grant is ours, the count was never incremented.
	s.res.Unblock(p)
	s.res.Acquire(p)
}

func (s *osekSem) Release(p *sim.Proc) {
	s.res.Release(p)
	if len(s.wq) > 0 {
		t := s.wq[0]
		copy(s.wq, s.wq[1:])
		s.wq = s.wq[:len(s.wq)-1]
		s.os.Resume(p, t)
		return
	}
	s.count++
}

// osekQueue is a FIFO queued message object (OSEK COM queued messages):
// receives block while empty, sends block while a finite capacity is
// full. Wakeups hand exactly one blocked peer back to the ready queue;
// the woken task re-checks the buffer under the single-CPU atomicity the
// dispatcher guarantees.
type osekQueue struct {
	os    *core.OS
	site  string
	cap   int
	buf   channel.Ring[int64]
	sendQ []*core.Task
	recvQ []*core.Task
	res   *core.Resource
}

func (q *osekQueue) Send(p *sim.Proc, v int64) {
	for q.cap > 0 && q.buf.Len() >= q.cap {
		t := q.os.Current()
		q.sendQ = append(q.sendQ, t)
		q.res.Block(p)
		q.os.Suspend(p, core.TaskWaitingEvent, q.site)
		q.res.Unblock(p)
	}
	q.buf.Push(v)
	if len(q.recvQ) > 0 {
		t := q.recvQ[0]
		copy(q.recvQ, q.recvQ[1:])
		q.recvQ = q.recvQ[:len(q.recvQ)-1]
		q.os.Resume(p, t)
	}
}

func (q *osekQueue) Recv(p *sim.Proc) int64 {
	for q.buf.Len() == 0 {
		t := q.os.Current()
		q.recvQ = append(q.recvQ, t)
		q.res.Block(p)
		q.os.Suspend(p, core.TaskWaitingEvent, q.site)
		q.res.Unblock(p)
	}
	v := q.buf.Pop()
	if len(q.sendQ) > 0 {
		t := q.sendQ[0]
		copy(q.sendQ, q.sendQ[1:])
		q.sendQ = q.sendQ[:len(q.sendQ)-1]
		q.os.Resume(p, t)
	}
	return v
}
