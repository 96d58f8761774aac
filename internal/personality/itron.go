package personality

import (
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/personality/itron"
	"repro/internal/sim"
)

// itronRT maps the Runtime surface onto µITRON 4.0 services: task sleep
// becomes slp_tsk/wup_tsk (with wakeup counting), termination ext_tsk,
// priority changes chg_pri, queues mailboxes, and semaphores the ITRON
// direct-handoff kind whose grant order is the wait-queue order rather
// than the generic notify-and-recontend race.
type itronRT struct {
	kr *itron.Kernel
}

func newITRON(os *core.OS) Runtime { return &itronRT{kr: itron.NewKernel(os)} }

func (r *itronRT) Kind() string { return ITRON }
func (r *itronRT) OS() *core.OS { return r.kr.OS() }

func (r *itronRT) TaskCreate(name string, typ core.TaskType, period, wcet sim.Time, prio int) *core.Task {
	return r.kr.OS().TaskCreate(name, typ, period, wcet, prio)
}

func (r *itronRT) Activate(p *sim.Proc, t *core.Task) { r.kr.OS().TaskActivate(p, t) }
func (r *itronRT) Compute(p *sim.Proc, d sim.Time)    { r.kr.OS().TimeWait(p, d) }
func (r *itronRT) EndCycle(p *sim.Proc)               { r.kr.OS().TaskEndCycle(p) }
func (r *itronRT) Terminate(p *sim.Proc)              { r.kr.ExtTsk(p) }
func (r *itronRT) Sleep(p *sim.Proc)                  { r.kr.SlpTsk(p) }
func (r *itronRT) Wake(p *sim.Proc, t *core.Task)     { r.kr.WupTsk(p, t) }
func (r *itronRT) Schedule(p *sim.Proc)               { r.kr.OS().Yield(p) }

func (r *itronRT) ChangePriority(p *sim.Proc, t *core.Task, prio int) {
	if r.kr.ChgPri(p, t, prio) != itron.EOK {
		// Model priorities outside the 1..TMAX_TPRI band (or dormant
		// targets) fall back to the dispatcher-level change so all
		// personalities honor the same request.
		t.SetPriority(prio)
		r.kr.OS().Reschedule(p)
	}
}

// NewQueue creates a mailbox. Mailboxes are unbounded (capacity is a
// property of the message pool in real ITRON systems), so sends never
// block — scenarios are constructed so that bounded-queue sends never
// block either, keeping the personalities comparable.
func (r *itronRT) NewQueue(name string, capacity int) Queue {
	if err := channel.ValidateQueue(name, capacity); err != nil {
		panic(err.Error())
	}
	m, er := r.kr.CreMbx(name, itron.TATFifo)
	if er != itron.EOK {
		panic("personality: cre_mbx " + er.String())
	}
	return native{m, r.kr.OS()}
}

// NewSemaphore creates an ITRON semaphore. A release past TMAX_SEMCNT
// ends the run with E_QOVR, as on the run-to-completion engine.
func (r *itronRT) NewSemaphore(name string, count int) Semaphore {
	if err := channel.ValidateSemaphore(name, count); err != nil {
		panic(err.Error())
	}
	s, er := r.kr.CreSem(name, count, itron.TMaxSemCnt, itron.TATFifo)
	if er != itron.EOK {
		panic("personality: cre_sem " + er.String())
	}
	return native{s, r.kr.OS()}
}
