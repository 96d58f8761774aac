// Package itron models a µITRON 4.0 kernel personality on top of the
// shared abstract-RTOS dispatcher (internal/core): the service semantics
// RTK-Spec TRON demonstrates at system level — wakeup counting for
// slp_tsk/wup_tsk, E_TMOUT timed services, eventflags with AND/OR wait
// modes, mailboxes, and FIFO- or priority-ordered object wait queues.
//
// Services follow the µITRON 4.0 specification's naming (transliterated
// to Go: slp_tsk → Kernel.SlpTsk) and return ER codes rather than
// panicking, so conformance tests can pin the specified error semantics
// clause by clause. Scheduling, time accounting and runtime diagnosis
// remain the shared dispatcher's: every object wait registers with the
// wait-for-graph monitor, and all telemetry flows through the usual
// observer hooks.
package itron

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// ER is the µITRON error code type (µITRON 4.0 §2.3). Service calls
// return E_OK (0) on success and a negative code on failure.
type ER int

// µITRON 4.0 standard error codes (Table 2-2) used by this model.
const (
	EOK    ER = 0   // normal completion
	EPAR   ER = -17 // parameter error
	EID    ER = -18 // invalid ID number
	ECTX   ER = -25 // context error (called from non-task context)
	EILUSE ER = -28 // illegal service call use
	EOBJ   ER = -41 // object state error (e.g. wup_tsk on a dormant task)
	ENOEXS ER = -42 // object does not exist
	EQOVR  ER = -43 // queueing overflow (wakeup count > TMAX_WUPCNT)
	ERLWAI ER = -49 // wait released by rel_wai
	ETMOUT ER = -50 // polling failure or timeout
)

func (e ER) String() string {
	switch e {
	case EOK:
		return "E_OK"
	case EPAR:
		return "E_PAR"
	case EID:
		return "E_ID"
	case ECTX:
		return "E_CTX"
	case EILUSE:
		return "E_ILUSE"
	case EOBJ:
		return "E_OBJ"
	case ENOEXS:
		return "E_NOEXS"
	case EQOVR:
		return "E_QOVR"
	case ERLWAI:
		return "E_RLWAI"
	case ETMOUT:
		return "E_TMOUT"
	}
	return fmt.Sprintf("ER(%d)", int(e))
}

// Timeout specifiers (µITRON 4.0 §2.5): TMO_FEVR waits forever, TMO_POL
// polls (a timed service with TMO_POL never blocks; failure is E_TMOUT).
const (
	TMOFevr sim.Time = -1
	TMOPol  sim.Time = 0
)

// Object attributes (µITRON 4.0: TA_TFIFO/TA_TPRI order the task wait
// queue, TA_WSGL/TA_WMUL bound eventflag waiters, TA_CLR clears an
// eventflag when a wait is released, TA_MPRI orders mailbox messages by
// message priority).
type Attr uint

const (
	TATFifo Attr = 0         // wait queue in FIFO order (default)
	TATPri  Attr = 1 << iota // wait queue in task-priority order
	TAWMul                   // eventflag: multiple waiters allowed
	TAClr                    // eventflag: clear pattern on wait release
	TAMPri                   // mailbox: messages ordered by priority
)

// Task priority bounds (µITRON 4.0: 1 is highest; TMAX_TPRI here 255)
// and the wakeup-queueing bound TMAX_WUPCNT.
const (
	TMinTPri    = 1
	TMaxTPri    = 255
	TMaxWupCnt  = 127
	TMaxSemCnt  = 1 << 30
	TMaxFlagBit = 32
)

// Kernel is one µITRON personality instance over a core.OS. All tasks of
// the OS may use its services; per-task µITRON state (wakeup count,
// pending forced release) is attached lazily.
type Kernel struct {
	os   *core.OS
	tcbs map[*core.Task]*tcb
}

// NewKernel attaches a µITRON personality to an OS instance.
func NewKernel(os *core.OS) *Kernel {
	return &Kernel{os: os, tcbs: make(map[*core.Task]*tcb)}
}

// OS returns the underlying dispatcher instance.
func (k *Kernel) OS() *core.OS { return k.os }

// tcb is the µITRON extension of a task control block.
type tcb struct {
	task     *core.Task
	wupcnt   int        // queued wakeup requests (slp_tsk/wup_tsk)
	sleeping bool       // blocked in slp_tsk/tslp_tsk
	relwai   bool       // forcibly released: pending E_RLWAI
	wait     *waitQueue // object wait queue the task is blocked in, if any

	// Per-wait scratch, valid while blocked on the matching object.
	waiptn FlagPattern // eventflag wait pattern
	wfmode Mode        // eventflag wait mode
	relptn FlagPattern // eventflag pattern at release
	msg    Msg         // mailbox handoff slot
}

// tcbOf returns (creating on first use) the µITRON state of a task.
func (k *Kernel) tcbOf(t *core.Task) *tcb {
	tc := k.tcbs[t]
	if tc == nil {
		tc = &tcb{task: t}
		k.tcbs[t] = tc
	}
	return tc
}

// self resolves the calling process to the running task, or E_CTX when
// called from a non-task context (ISR, unbound process) — the µITRON
// rule for task-context-only service calls.
func (k *Kernel) self(p *sim.Proc) (*tcb, ER) {
	t := k.os.Current()
	if t == nil || t.Proc() != p {
		return nil, ECTX
	}
	return k.tcbOf(t), EOK
}

// dormant reports task states µITRON treats as DORMANT (services on a
// dormant task return E_OBJ).
func dormant(t *core.Task) bool {
	s := t.State()
	return s == core.TaskCreated || !s.Alive()
}

// ---------------------------------------------------------------------------
// Task management and timed task services.

// SlpTsk puts the calling task to sleep until a wakeup arrives
// (µITRON 4.0 slp_tsk). A queued wakeup (wupcnt > 0) is consumed
// immediately without blocking.
func (k *Kernel) SlpTsk(p *sim.Proc) ER { return k.TSlpTsk(p, TMOFevr) }

// TSlpTsk is slp_tsk with a timeout (tslp_tsk): E_TMOUT when no wakeup
// arrives within tmo, E_RLWAI when released by RelWai. tmo = TMO_POL
// polls the wakeup queue.
func (k *Kernel) TSlpTsk(p *sim.Proc, tmo sim.Time) ER {
	tc, er := k.self(p)
	if er != EOK {
		return er
	}
	if tc.wupcnt > 0 {
		tc.wupcnt--
		return EOK
	}
	if tmo == TMOPol {
		return ETMOUT
	}
	tc.sleeping = true
	woken := k.os.SuspendTimeout(p, core.TaskSuspended, "task:"+tc.task.Name()+".sleep",
		tmo, func() { tc.sleeping = false })
	tc.sleeping = false
	if tc.relwai {
		tc.relwai = false
		return ERLWAI
	}
	if !woken {
		return ETMOUT
	}
	return EOK
}

// WupTsk wakes a task blocked in slp_tsk/tslp_tsk (wup_tsk). If the task
// is not sleeping, the wakeup is queued (up to TMAX_WUPCNT, then
// E_QOVR); wup_tsk on a dormant task is E_OBJ. Callable from ISRs.
func (k *Kernel) WupTsk(p *sim.Proc, t *core.Task) ER {
	if dormant(t) {
		return EOBJ
	}
	tc := k.tcbOf(t)
	if tc.sleeping {
		tc.sleeping = false
		k.os.Resume(p, t)
		return EOK
	}
	if tc.wupcnt >= TMaxWupCnt {
		return EQOVR
	}
	tc.wupcnt++
	return EOK
}

// CanWup cancels (and returns) the task's queued wakeup count
// (can_wup). A nil t queries the calling task.
func (k *Kernel) CanWup(p *sim.Proc, t *core.Task) (int, ER) {
	if t == nil {
		tc, er := k.self(p)
		if er != EOK {
			return 0, er
		}
		t = tc.task
	}
	if dormant(t) {
		return 0, EOBJ
	}
	tc := k.tcbOf(t)
	n := tc.wupcnt
	tc.wupcnt = 0
	return n, EOK
}

// ChgPri changes a task's base priority (chg_pri): E_PAR outside
// [TMinTPri, TMaxTPri], E_OBJ on a dormant task. The change takes
// scheduling effect immediately — a ready task is ranked by its new
// priority at the next dispatch decision, a running task may be
// preempted, and a task blocked in a TA_TPRI wait queue is re-ordered
// within it.
func (k *Kernel) ChgPri(p *sim.Proc, t *core.Task, pri int) ER {
	if pri < TMinTPri || pri > TMaxTPri {
		return EPAR
	}
	if dormant(t) {
		return EOBJ
	}
	k.chgPriAny(p, t, pri)
	return EOK
}

// chgPriAny is ChgPri without the µITRON range restriction — the
// personality adapter uses it for scenario tasks whose priorities come
// from the shared generator and may fall outside µITRON's band.
func (k *Kernel) chgPriAny(p *sim.Proc, t *core.Task, pri int) {
	t.SetPriority(pri)
	if tc := k.tcbs[t]; tc != nil && tc.wait != nil {
		tc.wait.requeue(tc)
	}
	k.os.Reschedule(p)
}

// GetPri returns a task's current priority (get_pri).
func (k *Kernel) GetPri(t *core.Task) (int, ER) {
	if dormant(t) {
		return 0, EOBJ
	}
	return t.Priority(), EOK
}

// DlyTsk delays the calling task for d (dly_tsk). Unlike modeled
// execution time (TimeWait), the delay is idle waiting: the CPU is
// released for the whole interval, and the wait is releasable by RelWai
// (E_RLWAI). A wakeup (wup_tsk) does not release a delay; it queues.
func (k *Kernel) DlyTsk(p *sim.Proc, d sim.Time) ER {
	tc, er := k.self(p)
	if er != EOK {
		return er
	}
	if d < 0 {
		return EPAR
	}
	k.os.SuspendTimeout(p, core.TaskWaitingTime, "task:"+tc.task.Name()+".delay", d, nil)
	if tc.relwai {
		tc.relwai = false
		return ERLWAI
	}
	return EOK
}

// RelWai forcibly releases another task from any wait state (rel_wai):
// the blocked service call returns E_RLWAI. E_OBJ if the task is not
// waiting.
func (k *Kernel) RelWai(p *sim.Proc, t *core.Task) ER {
	if dormant(t) {
		return EOBJ
	}
	tc := k.tcbOf(t)
	waiting := tc.sleeping || tc.wait != nil ||
		t.State() == core.TaskWaitingTime && t != k.os.Current()
	if !waiting {
		return EOBJ
	}
	tc.relwai = true
	tc.sleeping = false
	if tc.wait != nil {
		tc.wait.remove(tc)
	}
	k.os.Resume(p, t)
	return EOK
}

// ExtTsk terminates the calling task (ext_tsk).
func (k *Kernel) ExtTsk(p *sim.Proc) {
	k.os.TaskTerminate(p)
}
