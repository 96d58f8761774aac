package itron

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// FlagPattern is an eventflag bit pattern.
type FlagPattern uint32

// Mode selects the eventflag wait condition (µITRON 4.0 wai_flg wfmode).
type Mode uint

const (
	// TWFAndw releases the wait when all bits of the wait pattern are set.
	TWFAndw Mode = 1 << iota
	// TWFOrw releases the wait when any bit of the wait pattern is set.
	TWFOrw
)

// EventFlag is a µITRON eventflag (cre_flg/set_flg/clr_flg/wai_flg): a
// bit pattern tasks wait on with AND/OR conditions. With TA_CLR the
// whole pattern clears when a wait is released; without TA_WMUL only one
// task may wait at a time (E_ILUSE for the second).
type EventFlag struct {
	k    *Kernel
	name string
	site string
	attr Attr
	ptn  FlagPattern
	wq   waitQueue
	res  *core.Resource
}

// CreFlg creates an eventflag with the given attributes and initial
// pattern (cre_flg).
func (k *Kernel) CreFlg(name string, attr Attr, init FlagPattern) (*EventFlag, ER) {
	return &EventFlag{k: k, name: name, site: "eventflag:" + name, attr: attr,
		ptn: init, wq: newWaitQueue(attr),
		res: k.s.Monitor().NewResource(name, "eventflag", false)}, EOK
}

// Name returns the eventflag's name.
func (f *EventFlag) Name() string { return f.name }

// Pattern returns the current bit pattern (ref_flg snapshot).
func (f *EventFlag) Pattern() FlagPattern { return f.ptn }

func matches(ptn, waiptn FlagPattern, mode Mode) bool {
	if mode == TWFAndw {
		return ptn&waiptn == waiptn
	}
	return ptn&waiptn != 0
}

// Set sets bits of the pattern (set_flg) and releases every waiter whose
// condition becomes true, in wait-queue order. Under TA_CLR the whole
// pattern clears at the first release, so at most one waiter is freed
// per call. Callable from ISRs.
func (f *EventFlag) Set(p *sim.Proc, setptn FlagPattern) ER {
	f.ptn |= setptn
	for i := 0; i < len(f.wq.q); {
		tc := f.wq.q[i]
		if !matches(f.ptn, tc.waiptn, tc.wfmode) {
			i++
			continue
		}
		tc.relptn = f.ptn
		f.wq.remove(tc)
		f.k.os.Resume(p, tc.task)
		if f.attr&TAClr != 0 {
			f.ptn = 0
			break
		}
	}
	return EOK
}

// Clr clears pattern bits (clr_flg): the new pattern is the AND of the
// current pattern and clrptn. It never releases waits.
func (f *EventFlag) Clr(p *sim.Proc, clrptn FlagPattern) ER {
	f.ptn &= clrptn
	return EOK
}

// Wai waits until the flag pattern satisfies waiptn under mode
// (wai_flg), returning the pattern at release.
func (f *EventFlag) Wai(p *sim.Proc, waiptn FlagPattern, mode Mode) (FlagPattern, ER) {
	return f.TWai(p, waiptn, mode, TMOFevr)
}

// Pol is wai_flg with TMO_POL (pol_flg).
func (f *EventFlag) Pol(p *sim.Proc, waiptn FlagPattern, mode Mode) (FlagPattern, ER) {
	return f.TWai(p, waiptn, mode, TMOPol)
}

// TWai is wai_flg with a timeout (twai_flg): E_PAR for an empty wait
// pattern or invalid mode, E_ILUSE for a second waiter on a TA_WSGL
// flag, E_TMOUT on expiry, E_RLWAI when released forcibly.
func (f *EventFlag) TWai(p *sim.Proc, waiptn FlagPattern, mode Mode, tmo sim.Time) (FlagPattern, ER) {
	tc, er := f.k.self(p)
	if er != EOK {
		return 0, er
	}
	if waiptn == 0 || (mode != TWFAndw && mode != TWFOrw) {
		return 0, EPAR
	}
	if matches(f.ptn, waiptn, mode) {
		got := f.ptn
		if f.attr&TAClr != 0 {
			f.ptn = 0
		}
		return got, EOK
	}
	if tmo == TMOPol {
		return 0, ETMOUT
	}
	if f.attr&TAWMul == 0 && !f.wq.empty() {
		return 0, EILUSE
	}
	tc.waiptn = waiptn
	tc.wfmode = mode
	f.wq.enqueue(tc)
	f.res.Block(p)
	woken := f.k.os.SuspendTimeout(p, core.TaskWaitingEvent, f.site, tmo,
		func() { f.wq.remove(tc) })
	f.res.Unblock(p)
	if tc.relwai {
		tc.relwai = false
		return 0, ERLWAI
	}
	if !woken {
		return 0, ETMOUT
	}
	return tc.relptn, EOK
}
