package rtc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// RunGoroutine executes a flat workload on the goroutine-per-process
// simulation kernel (internal/sim). It programs core.OS through the
// workload's personality and returns the Result Run returns: the same
// spawn order, task bodies, watchdog and horizon, and a Result filled as
// Session.Finish fills it (the reference the engine-equivalence suites
// diff rtc against). With CPUs > 1 the same task bodies run on one OS
// with that many CPUs under a global policy ("g-fp" is core's priority
// policy, "g-edf" its EDF policy), with no personality, channels or
// IRQs; Migrations counts the tasks' migrations, the trace holds no
// records (its formats have no CPU axis), and response times are not
// tracked. It is the goroutine engine of the front ends that build a
// Workload (taskset, simcheck, experiments). Each bus is attached to the
// scheduler as Run attaches it, so both engines feed a bus the same event
// stream. Hierarchical workloads (Top set) are an error: sdl elaborates
// those on the goroutine kernel itself.
func RunGoroutine(w Workload, bus ...*telemetry.Bus) *Result {
	if w.Top != "" {
		return configError(w, fmt.Errorf("rtc: RunGoroutine runs flat workloads; %q is hierarchical", w.Top))
	}
	multi := w.CPUs > 1
	name, pol := w.Name, w.Policy
	var policy core.Policy
	var err error
	switch {
	case !multi && !personality.Valid(w.Personality):
		err = fmt.Errorf("rtc: unknown personality %q", w.Personality)
	case !multi:
		if name == "" {
			name = "PE"
		}
		if pol == "" {
			pol = "priority"
		}
		policy, err = core.PolicyByName(pol, w.Quantum)
	case w.Personality != "":
		err = fmt.Errorf("rtc: personality %q models one CPU; the global scheduler has none", w.Personality)
	case len(w.Channels) > 0 || len(w.IRQs) > 0:
		err = fmt.Errorf("rtc: the global scheduler models no channels or IRQs")
	case pol == "g-fp":
		policy = core.PriorityPolicy{}
	case pol == "g-edf":
		policy = core.EDFPolicy{}
	default:
		err = fmt.Errorf("rtc: unknown global policy %q on %d CPUs (have \"g-fp\", \"g-edf\")", pol, w.CPUs)
	}
	if err != nil {
		return configError(w, err)
	}
	if multi && name == "" {
		name = "SMP"
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	rtos := core.New(k, name, policy, core.WithTimeModel(w.TimeModel), core.WithCPUs(max(w.CPUs, 1)))
	rec, _ := observe(&rtos.Sched, name, w.Trace && !multi, bus)
	rt, err := personality.New(w.Personality, rtos)
	if err != nil {
		return configError(w, err)
	}

	// Channels in declaration order, like Session.init.
	chans := make([]goChan, len(w.Channels))
	for i, c := range w.Channels {
		if err := checkChannel(c); err != nil {
			return configError(w, fmt.Errorf("rtc: %w", err))
		}
		switch c.Kind {
		case "queue":
			chans[i].q = rt.NewQueue(c.Name, c.Arg)
		case "semaphore":
			chans[i].s = rt.NewSemaphore(c.Name, c.Arg)
		}
	}
	resp := response
	if multi {
		resp = nil
	}
	tasks, worst, err := spawnTasks(k, &w, rt, chans, resp)
	if err != nil {
		return configError(w, err)
	}

	// Interrupt sources: the merged stimulus+ISR process fIRQBody runs.
	for _, irq := range w.IRQs {
		ix := findChannel(w.Channels, irq.Sem, "semaphore")
		if ix < 0 {
			return configError(w, fmt.Errorf("rtc: irq %q releases unknown semaphore %q", irq.Name, irq.Sem))
		}
		c := &chans[ix]
		p := k.Spawn("irq:"+irq.Name, func(p *sim.Proc) {
			p.WaitFor(irq.At)
			for i := 0; i < irq.Count; i++ {
				if i > 0 {
					p.WaitFor(irq.Every)
				}
				rtos.InterruptEnter(p, irq.Name)
				c.s.Release(p)
				rtos.InterruptReturn(p, irq.Name)
			}
		})
		p.SetDaemon(true)
	}
	rtos.EnableWatchdog(w.WatchdogWindow)
	rtos.Start(nil)

	res := &Result{Tasks: make([]TaskResult, 0, len(tasks))}
	if !multi {
		res.Personality = rt.Kind()
	}
	res.Err = k.RunUntil(w.Horizon)
	res.End = k.Now()
	res.Trace = rec
	if multi && w.Trace {
		res.Trace = trace.New(name)
	}
	res.Stats = rtos.StatsSnapshot()
	res.Diag = rtos.Diagnosis()
	if res.Diag == nil {
		res.Diag = rtos.DiagnoseNow()
	}
	res.Conservation = rtos.CheckConservation()
	for i, t := range tasks {
		res.Tasks = append(res.Tasks, taskResult(t, worst[i]))
		res.Migrations += uint64(t.Migrations())
	}
	return res
}

// response is a uniprocessor task's response time in its current cycle.
func response(t *core.Task) Time {
	if done, rel := t.LastWorkDone(), t.Release(); done > rel {
		return done - rel
	}
	return 0
}

// spawnTasks creates the workload's tasks on rt and spawns their bodies
// in declaration order, Session.init's order. A periodic task runs its
// segments once per cycle (forever, on a daemon process, when Cycles is
// 0) and, when resp is given, keeps its worst response time; an
// aperiodic one waits out Start, activates, and runs its ops Repeat
// times. It returns the tasks and their worst response times.
func spawnTasks(k *sim.Kernel, w *Workload, rt personality.Runtime, chans []goChan, resp func(*core.Task) Time) ([]*core.Task, []Time, error) {
	tasks := make([]*core.Task, len(w.Tasks))
	worst := make([]Time, len(w.Tasks))
	for i := range w.Tasks {
		td := &w.Tasks[i]
		switch td.Type {
		case "periodic":
			var wcet Time
			for _, seg := range td.Segments {
				wcet += seg
			}
			task := rt.TaskCreate(td.Name, core.Periodic, td.Period, wcet, td.Prio)
			tasks[i] = task
			p := k.Spawn(td.Name, func(p *sim.Proc) {
				rt.Activate(p, task)
				for c := 0; td.Cycles == 0 || c < td.Cycles; c++ {
					for _, seg := range td.Segments {
						rt.Compute(p, seg)
					}
					if resp != nil {
						worst[i] = max(worst[i], resp(task))
					}
					rt.EndCycle(p)
				}
				rt.Terminate(p)
			})
			p.SetDaemon(td.Cycles == 0)
		case "aperiodic":
			ops := make([]goOp, len(td.Ops))
			var wcet Time
			for j, op := range td.Ops {
				if op.Kind == "delay" {
					ops[j], wcet = goOp{dur: op.Dur}, wcet+op.Dur
					continue
				}
				cop, ix, err := flatOp(w.Channels, op)
				if err != nil {
					return nil, nil, err
				}
				ops[j] = goOp{op: cop, c: &chans[ix]}
			}
			repeat := max(td.Repeat, 1)
			task := rt.TaskCreate(td.Name, core.Aperiodic, 0, wcet*Time(repeat), td.Prio)
			tasks[i] = task
			k.Spawn(td.Name, func(p *sim.Proc) {
				if td.Start > 0 {
					p.WaitFor(td.Start)
				}
				rt.Activate(p, task)
				for r := 0; r < repeat; r++ {
					for _, op := range ops {
						if op.c == nil {
							rt.Compute(p, op.dur)
						} else {
							op.do(p)
						}
					}
				}
				rt.Terminate(p)
			})
		default:
			return nil, nil, fmt.Errorf("rtc: unknown task type %q", td.Type)
		}
	}
	return tasks, worst, nil
}

// goChan is one declared channel on the goroutine kernel: the
// personality's queue or semaphore (neither for a handshake, which flat
// bodies cannot use).
type goChan struct {
	q personality.Queue
	s personality.Semaphore
}

// goOp is a resolved flat-body op on the goroutine kernel: a delay, or a
// channel operation on a declared channel.
type goOp struct {
	op  core.ChanOp
	dur Time
	c   *goChan // nil for a delay
}

func (o *goOp) do(p *sim.Proc) {
	switch o.op {
	case core.OpSend:
		o.c.q.Send(p, 1)
	case core.OpRecv:
		o.c.q.Recv(p)
	case core.OpAcquire:
		o.c.s.Acquire(p)
	default:
		o.c.s.Release(p)
	}
}
