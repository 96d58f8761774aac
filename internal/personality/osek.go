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
	q, err := NewOSEKQueue(r.os.Monitor(), name, capacity)
	if err != nil {
		panic(err.Error())
	}
	return native{q, r.os}
}

func (r *osekRT) NewSemaphore(name string, count int) Semaphore {
	s, err := NewOSEKSem(r.os.Monitor(), name, count)
	if err != nil {
		panic(err.Error())
	}
	return native{s, r.os}
}

// OSEKSem is a counting semaphore with FIFO direct handoff: a release
// with waiters grants the head waiter without touching the count, so
// grant order is arrival order regardless of task priority. It is a
// core.Channel both execution engines drive.
type OSEKSem struct {
	site  string
	count int
	wq    []*core.Task
	res   *core.Resource
}

// NewOSEKSem validates the initial count and registers the semaphore with
// the monitor m.
func NewOSEKSem(m *core.Monitor, name string, count int) (*OSEKSem, error) {
	if err := channel.ValidateSemaphore(name, count); err != nil {
		return nil, err
	}
	return &OSEKSem{site: "semaphore:" + name, count: count,
		res: m.NewResource(name, "semaphore", false)}, nil
}

// Step performs OpAcquire or OpRelease for task t.
func (s *OSEKSem) Step(now sim.Time, t *core.Task, op core.ChanOp, val int64, again bool) (int64, core.Verdict) {
	switch {
	case op == core.OpRelease:
		s.res.ReleaseTask(t)
		if len(s.wq) > 0 {
			return val, core.Verdict{Wake: popTask(&s.wq)}
		}
		s.count++
	case again:
		// The releaser removed t from the queue before the wakeup: the
		// grant is t's, the count was never incremented.
		s.res.UnblockTask(t)
		s.res.AcquireTask(t)
	case s.count > 0:
		s.count--
		s.res.AcquireTask(t)
	default:
		s.wq = append(s.wq, t)
		s.res.BlockTask(now, t)
		return val, core.Verdict{Suspend: s.site}
	}
	return val, core.Verdict{}
}

// State writes or reads the count and the wait queue for a checkpoint. A
// release hands a unit to the head waiter directly, so units and waiters
// never coexist.
func (s *OSEKSem) State(c *core.StateCodec) {
	c.Line("os %d", &s.count)
	c.Tasks("osw", &s.wq)
	if s.count < 0 || s.count > 0 && len(s.wq) > 0 {
		c.Failf("%s count %d with %d waiters", s.site, s.count, len(s.wq))
	}
}

// OSEKQueue is a FIFO queued message object (OSEK COM queued messages):
// receives block while empty, sends block while the capacity is full.
// Wakeups hand exactly one blocked peer back to the ready queue; the
// woken task re-checks the buffer under the single-CPU atomicity the
// dispatcher guarantees. It is a core.Channel both execution engines
// drive.
type OSEKQueue struct {
	site  string
	cap   int
	buf   channel.Ring[int64]
	sendQ []*core.Task
	recvQ []*core.Task
	res   *core.Resource
}

// NewOSEKQueue validates the capacity and registers the queue with the
// monitor m.
func NewOSEKQueue(m *core.Monitor, name string, capacity int) (*OSEKQueue, error) {
	if err := channel.ValidateQueue(name, capacity); err != nil {
		return nil, err
	}
	return &OSEKQueue{site: "queue:" + name, cap: capacity, buf: channel.NewRing[int64](capacity),
		res: m.NewResource(name, "queue", false)}, nil
}

// Step performs OpSend or OpRecv for task t.
func (q *OSEKQueue) Step(now sim.Time, t *core.Task, op core.ChanOp, val int64, again bool) (int64, core.Verdict) {
	if again {
		q.res.UnblockTask(t)
	}
	wq, peers := &q.recvQ, &q.sendQ
	if op == core.OpSend {
		wq, peers = peers, wq
	}
	if op == core.OpSend && q.buf.Len() >= q.cap || op == core.OpRecv && q.buf.Len() == 0 {
		*wq = append(*wq, t)
		q.res.BlockTask(now, t)
		return val, core.Verdict{Suspend: q.site}
	}
	if op == core.OpSend {
		q.buf.Push(val)
	} else {
		val = q.buf.Pop()
	}
	return val, core.Verdict{Wake: popTask(peers)}
}

// State writes or reads the buffer and both wait lists for a checkpoint.
func (q *OSEKQueue) State(c *core.StateCodec) {
	q.buf.State(c, "oq")
	c.Tasks("oqs", &q.sendQ)
	c.Tasks("oqr", &q.recvQ)
}

// popTask removes and returns the head of a FIFO wait list (nil when
// empty), reusing its backing array.
func popTask(wq *[]*core.Task) *core.Task {
	q := *wq
	if len(q) == 0 {
		return nil
	}
	t := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	*wq = q[:len(q)-1]
	return t
}
