// Package rtc is the run-to-completion execution engine: an alternative
// to the goroutine-per-process simulation kernel (internal/sim +
// internal/core) in which delay-annotated behaviors compile to resumable
// frame lists executed to completion on a single goroutine. A context
// switch is a method return plus an index increment — zero channel
// operations. Scheduling decisions, accounting, trace records, observer
// hooks and diagnosis come from the same core.Sched the goroutine kernel
// runs, so both engines produce byte-identical traces and telemetry
// streams (pinned by the engine-equivalence suites). Timers run on
// sim.Timers, the pointer-free (deadline, sequence) heap the goroutine
// kernel schedules through too; a machine's index is its timer id. A
// blocked machine's state word alone says what it waits for (dispatch,
// a timer, a segmented delay an interrupt can cut short, an SDL ISR's
// latch): each wait has one machine that can end it, so the engine
// keeps no event objects or waiter lists.
// RunGoroutine executes a flat Workload on the goroutine kernel's
// core.OS, with one CPU or several under a global policy, so a front end
// describes its task set once and picks the engine by the runner it
// calls.
package rtc

import (
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Op is one step of an aperiodic task body or a hierarchical behavior.
// Flat task bodies (TaskDef.Ops) use the first five kinds; behavior
// statement lists (BehaviorDef.Stmts) additionally use "signal",
// "waitsig", "marker" and "repeat" — the SDL statement set.
type Op struct {
	Kind  string // "delay", "send", "recv", "acquire", "release", "signal", "waitsig", "marker", "repeat"
	Dur   Time   // delay duration
	Ch    string // channel name for channel-using ops
	Value int64  // send payload / marker argument
	Label string // marker label
	Count int    // repeat count
	Body  []Op   // repeat body
}

// BehaviorDef is one node of a hierarchical (SDL) workload: a leaf
// statement list or a sequential/parallel composition of previously
// declared behaviors. Present only when Workload.Top is set.
type BehaviorDef struct {
	Name     string
	Kind     string   // "leaf", "seq", "par"
	Stmts    []Op     // leaf body
	Children []string // seq/par children, in execution order
}

// TaskDef describes one task of a workload (the engine-level mirror of
// simcheck.TaskSpec, plus Repeat for benchmark loops).
type TaskDef struct {
	Name     string
	Type     string // "periodic" or "aperiodic"
	Prio     int
	Period   Time   // periodic
	Cycles   int    // periodic; 0 runs forever on a daemon machine
	Segments []Time // periodic: per-cycle compute segments
	Start    Time   // aperiodic: release offset
	Ops      []Op   // aperiodic body
	Repeat   int    // aperiodic: run Ops this many times (0/1 = once)
}

// ChannelDef describes a communication object: kind "queue" (Arg =
// capacity), "semaphore" (Arg = initial count), or "handshake" (a
// latched signal; hierarchical workloads only).
type ChannelDef struct {
	Name string
	Kind string
	Arg  int
}

// IRQDef describes an interrupt source that releases a semaphore.
type IRQDef struct {
	Name  string
	Sem   string
	At    Time
	Every Time
	Count int
}

// Workload is a complete scenario for the engines. Two shapes are
// supported:
//
//   - flat (Top == ""): Tasks are the task set, each with its own body;
//     IRQs run a merged stimulus+ISR process. On one CPU both Run and
//     RunGoroutine execute it. With CPUs > 1 only RunGoroutine does: it
//     spawns the same task bodies on a core.OS with CPUs CPUs under a
//     global policy (Policy "g-fp" or "g-edf"; no personality, channels
//     or IRQs).
//   - hierarchical (Top != ""): Behaviors/Top describe an SDL behavior
//     tree whose root becomes the PE's main task and whose par children
//     fork tasks at runtime (refine.RunArchitecture's protocol); Tasks
//     then act as the refinement mapping (TaskDef.Name names a behavior;
//     unmapped behaviors default to aperiodic priority 100+order), and
//     IRQs elaborate as split stimulus and ISR machines, the SDL
//     architecture model's shape. Run executes it, on one CPU.
type Workload struct {
	Name           string // PE name; defaults to "PE" ("SMP" when CPUs > 1)
	Policy         string
	Quantum        Time
	TimeModel      core.TimeModel
	Personality    string // "", "generic", "itron", "osek"
	CPUs           int    // 0/1: one PE; >1: the global scheduler (RunGoroutine only)
	Tasks          []TaskDef
	Channels       []ChannelDef
	IRQs           []IRQDef
	Behaviors      []BehaviorDef // hierarchical workloads
	Top            string        // root behavior; selects hierarchical mode
	WatchdogWindow Time
	Horizon        Time
	Trace          bool
}

// TaskResult is one task's outcome, directly comparable with the
// goroutine engine's per-task fields.
type TaskResult struct {
	Name        string
	Prio        int
	Terminated  bool
	Activations int
	Missed      int
	CPUTime     Time
	MaxResp     Time
}

// Result is a completed (or failed) run.
type Result struct {
	Err          error
	End          Time
	Trace        *trace.Recorder // the run's trace (nil unless Workload.Trace)
	Stats        core.Stats
	Migrations   uint64 // the tasks' migrations between CPUs (0 on one CPU)
	Tasks        []TaskResult
	Diag         *core.DiagnosisError
	Conservation error
	Personality  string
}

// Run executes the workload to its horizon and returns the outcome.
// Configuration errors are reported via Result.Err, as RunGoroutine
// reports them, and each bus is attached as RunGoroutine attaches it.
// Run is NewSession + RunUntil + Finish.
func Run(w Workload, bus ...*telemetry.Bus) *Result {
	s, err := NewSession(w, bus...)
	if err != nil {
		return configError(w, err)
	}
	s.RunUntil(w.Horizon)
	return s.Finish()
}

// configError is the Result of a workload that failed to build.
func configError(w Workload, err error) *Result {
	res := &Result{Err: err}
	if personality.Valid(w.Personality) {
		res.Personality = w.Personality
		if res.Personality == "" {
			res.Personality = "generic"
		}
	}
	return res
}

// bodyOp is a resolved Op with its channel bound. For the generic
// personality's channels the concrete state is also kept (gq/gs) so the
// body can run an operation that does not block inline, through the
// state's own Put, Take, TryAcquire and Release — no opFrame dispatch;
// one that blocks takes the op frame, keeping its stack shape (and so
// the snapshot layout) unchanged.
type bodyOp struct {
	op  core.ChanOp
	del bool
	dur Time
	c   *chanRef
	gq  *channel.QueueState[int64]
	gs  *channel.SemaphoreState
}

// chanOps maps the channel op kinds onto channel operations and the
// channel kind they need. Flat task bodies use the queue and semaphore
// ones.
var chanOps = map[string]struct {
	op   core.ChanOp
	kind string
}{
	"send":    {core.OpSend, "queue"},
	"recv":    {core.OpRecv, "queue"},
	"acquire": {core.OpAcquire, "semaphore"},
	"release": {core.OpRelease, "semaphore"},
	"signal":  {core.OpSignal, "handshake"},
	"waitsig": {core.OpWait, "handshake"},
}

func (s *Session) bindOps(ops []Op) ([]bodyOp, error) {
	out := make([]bodyOp, len(ops))
	for i, op := range ops {
		if op.Kind == "delay" {
			out[i] = bodyOp{del: true, dur: op.Dur}
			continue
		}
		cop, ix, err := flatOp(s.w.Channels, op)
		if err != nil {
			return nil, err
		}
		c := &s.chans[ix]
		out[i] = bodyOp{op: cop, c: c}
		out[i].gq, _ = c.obj.(*channel.QueueState[int64])
		out[i].gs, _ = c.obj.(*channel.SemaphoreState)
	}
	return out, nil
}

// fPeriodicBody is the harness body for a periodic task: activate, then
// per cycle run the compute segments, track the worst response time, and
// end the cycle — the same loop RunGoroutine runs.
type fPeriodicBody struct {
	segments []Time
	cycles   int // 0 = forever
	c        int
	segIx    int
	rel      Time
	resp     Time
	pc       int
}

func (f *fPeriodicBody) step(m *machine) status {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			return m.callActivate()
		case 1: // cycle head
			if f.cycles > 0 && f.c >= f.cycles {
				m.k.os.taskTerminate(m)
				return statDone
			}
			f.rel = m.task.Release()
			f.segIx = 0
			f.pc = 2
		case 2: // segments
			if f.segIx < len(f.segments) {
				d := f.segments[f.segIx]
				f.segIx++
				return m.callTimeWait(d)
			}
			if done := m.task.LastWorkDone(); done > f.rel && done-f.rel > f.resp {
				f.resp = done - f.rel
			}
			f.c++
			f.pc = 1
			return m.callEndCycle()
		}
	}
}

// fAperiodicBody is the harness body for an aperiodic task: optional
// start delay, activate, run the op list (Repeat times), terminate.
type fAperiodicBody struct {
	start  Time
	ops    []bodyOp
	repeat int
	rep    int
	opIx   int
	pc     int
}

func (f *fAperiodicBody) step(m *machine) status {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			if f.start > 0 {
				m.sleep(f.start)
				return statBlocked
			}
		case 1:
			f.pc = 2
			return m.callActivate()
		case 2:
			if f.opIx < len(f.ops) {
				op := &f.ops[f.opIx]
				f.opIx++
				if op.del {
					return m.callTimeWait(op.dur)
				}
				switch {
				case op.gs != nil && op.op == core.OpRelease:
					op.gs.Release(m.task)
					return m.eventNotify(op.c.ev, statCall)
				case op.gs != nil && op.gs.TryAcquire(m.task):
					continue
				case op.gq != nil && op.op == core.OpSend && op.gq.Put(1):
					return m.eventNotify(op.c.ev, statCall)
				case op.gq != nil && op.op == core.OpRecv:
					if _, ok := op.gq.Take(); ok {
						return m.eventNotify(op.c.ev, statCall)
					}
				}
				return m.callOp(op.op, op.c, 1)
			}
			if f.rep+1 < f.repeat {
				f.rep++
				f.opIx = 0
				continue
			}
			m.k.os.taskTerminate(m)
			return statDone
		}
	}
}

// fIRQBody is the interrupt-source process, RunGoroutine's IRQ body: at
// At (and then every Every), enter the ISR, release the semaphore,
// return.
type fIRQBody struct {
	name  string
	sem   *chanRef
	at    Time
	every Time
	count int
	i     int
	pc    int
}

func (f *fIRQBody) step(m *machine) status {
	os := m.k.os
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			m.sleep(f.at)
			return statBlocked
		case 1: // firing loop head
			if f.i >= f.count {
				return statDone
			}
			f.pc = 2
			if f.i > 0 {
				m.sleep(f.every)
				return statBlocked
			}
		case 2: // InterruptEnter + semaphore release
			os.IRQ(os.k.now, f.name, true)
			f.pc = 3
			return m.callOp(core.OpRelease, f.sem, 0)
		case 3: // InterruptReturn
			os.IRQ(os.k.now, f.name, false)
			f.pc = 4
			return m.decideFrom(statCall)
		case 4:
			f.i++
			f.pc = 1
		}
	}
}
