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
// simulation kernel (internal/sim + core.OS, programmed through the
// workload's personality) and returns the Result Run returns for it:
// the same spawn order, task bodies, watchdog and horizon, and a Result
// filled as Session.Finish fills it. It is the reference the engine-
// equivalence suites diff rtc against, and the goroutine engine of the
// front ends that build a Workload (taskset, simcheck). Each bus is
// attached to the RTOS instance and receives the trace's markers.
// Hierarchical workloads (Top set) are an error: sdl elaborates those on
// the goroutine kernel itself.
func RunGoroutine(w Workload, bus ...*telemetry.Bus) *Result {
	if w.Top != "" {
		return configError(w, fmt.Errorf("rtc: RunGoroutine runs flat workloads; %q is hierarchical", w.Top))
	}
	if !personality.Valid(w.Personality) {
		return configError(w, fmt.Errorf("rtc: unknown personality %q", w.Personality))
	}
	name := w.Name
	if name == "" {
		name = "PE"
	}
	pol := w.Policy
	if pol == "" {
		pol = "priority"
	}
	policy, err := core.PolicyByName(pol, w.Quantum)
	if err != nil {
		return configError(w, err)
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	rtos := core.New(k, name, policy, core.WithTimeModel(w.TimeModel))
	var rec *trace.Recorder
	if w.Trace {
		rec = trace.New(name)
		rec.Attach(rtos)
	}
	for _, b := range bus {
		b.Attach(rtos)
		if rec != nil {
			rec.TeeMarkers(b)
		}
	}
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

	tasks := make([]*core.Task, len(w.Tasks))
	resp := make([]Time, len(w.Tasks))
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
					rel := task.Release()
					for _, seg := range td.Segments {
						rt.Compute(p, seg)
					}
					if done := task.LastWorkDone(); done > rel && done-rel > resp[i] {
						resp[i] = done - rel
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
					return configError(w, err)
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
						op.do(p, rt)
					}
				}
				rt.Terminate(p)
			})
		default:
			return configError(w, fmt.Errorf("rtc: unknown task type %q", td.Type))
		}
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

	res := &Result{Personality: rt.Kind(), Tasks: make([]TaskResult, 0, len(tasks))}
	res.Err = k.RunUntil(w.Horizon)
	res.End = k.Now()
	if rec != nil {
		res.Records, res.Trace = rec.Records(), rec
	}
	res.Stats = rtos.StatsSnapshot()
	res.Diag = rtos.Diagnosis()
	if res.Diag == nil {
		res.Diag = rtos.DiagnoseNow()
	}
	res.Conservation = rtos.CheckConservation()
	for i, t := range tasks {
		res.Tasks = append(res.Tasks, taskResult(t, resp[i]))
	}
	return res
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

func (o *goOp) do(p *sim.Proc, rt personality.Runtime) {
	switch {
	case o.c == nil:
		rt.Compute(p, o.dur)
	case o.op == core.OpSend:
		o.c.q.Send(p, 1)
	case o.op == core.OpRecv:
		o.c.q.Recv(p)
	case o.op == core.OpAcquire:
		o.c.s.Acquire(p)
	default:
		o.c.s.Release(p)
	}
}
