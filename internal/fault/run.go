package fault

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/telemetry"
)

// stallPrio ranks transient PE stalls above every application task under
// priority-driven policies; SetDeadline(0) does the same under EDF. Under
// RM the dispatcher re-derives priorities at Start (stalls then rank
// first among aperiodic tasks only), and non-preemptive FCFS delays the
// stall to the next scheduling point — both faithful to how a bus stall
// would actually bite under those disciplines.
const stallPrio = -1 << 30

// Options selects the scheduling configuration a fault run executes under.
type Options struct {
	Policy    string   // core policy name (default "priority")
	TimeModel string   // "coarse" or "segmented" (default "segmented")
	Quantum   sim.Time // round-robin slice (default 25µs, "rr" only)
	Watchdog  sim.Time // starvation watchdog window (0: derived from the scenario)
	Horizon   sim.Time // simulation end (0: derived from scenario + plan)

	// Personality selects the RTOS service surface the scenario's tasks
	// run against ("", "generic", "itron", "osek"). Faults are injected
	// below the personality layer, so the same plan wedges (or doesn't)
	// whatever kernel API sits on top — the must-detect deadlock gate is
	// pinned under both generic and itron in robustness_test.go.
	Personality string
}

func (o Options) withDefaults() Options {
	if o.Policy == "" {
		o.Policy = "priority"
	}
	if o.TimeModel == "" {
		o.TimeModel = "segmented"
	}
	if o.Quantum <= 0 {
		o.Quantum = 25 * sim.Microsecond
	}
	return o
}

func (o Options) String() string {
	s := o.Policy + "/" + o.TimeModel
	if o.Personality != "" {
		s += "/" + o.Personality
	}
	return s
}

// Result is one (scenario, plan) fault run: what was injected, how the
// run ended, and what the diagnosis layer concluded.
type Result struct {
	Seed     int64
	Plan     string
	Opt      Options
	Err      error    // simulation error (diagnoses surface here via Kernel.Fail)
	End      sim.Time // simulated end time
	Injected int      // faults injected

	// Diag is the diagnosis recorded while the run executed (watchdog or
	// kernel-stall path); PostMortem is one found only by inspecting the
	// final state at the horizon. At most one of each; Diagnosed() merges.
	Diag       *core.DiagnosisError
	PostMortem *core.DiagnosisError

	Unfinished []string          // tasks still alive at the end
	Events     []telemetry.Event // fault.* events in emission order
	Report     *telemetry.Report // full metrics snapshot of the run
}

// Diagnosed returns the run's diagnosis — recorded or post-mortem — or
// nil for a clean run.
func (r *Result) Diagnosed() *core.DiagnosisError {
	if r.Diag != nil {
		return r.Diag
	}
	return r.PostMortem
}

// DiagnosticStream renders the run as its canonical byte form: header,
// every fault.* event, the diagnosis and the end-state footer. Identical
// (scenario, plan, options) runs must produce identical bytes — the
// campaign determinism contract.
func (r *Result) DiagnosticStream() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== seed %d plan %s %s\n", r.Seed, r.Plan, r.Opt)
	for _, e := range r.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	switch {
	case r.Diag != nil:
		fmt.Fprintf(&b, "diagnosis: %v\n", r.Diag)
	case r.PostMortem != nil:
		fmt.Fprintf(&b, "post-mortem: %v\n", r.PostMortem)
	default:
		b.WriteString("diagnosis: clean\n")
	}
	fmt.Fprintf(&b, "end %v injected %d unfinished %d\n", r.End, r.Injected, len(r.Unfinished))
	return b.Bytes()
}

// horizonFor extends the scenario's drain horizon by the extra work and
// latency the plan injects, so a clean run still drains before the end.
func horizonFor(s *simcheck.Scenario, p *Plan, opt Options) sim.Time {
	if opt.Horizon > 0 {
		return opt.Horizon
	}
	h := s.Horizon()
	var work sim.Time
	for i := range s.Tasks {
		work += s.Tasks[i].Work()
	}
	if es := p.ExecScale; es != nil && es.Percent > 100 {
		h += work * sim.Time(es.Percent-100) / 100
	}
	if j := p.Jitter; j != nil {
		h += j.Max * sim.Time(len(s.Tasks)+len(s.IRQs))
	}
	for _, st := range p.Stalls {
		h += st.Dur
		if end := st.At + 2*st.Dur; end > h {
			h = end
		}
	}
	for _, sp := range p.Spurious {
		if end := sp.At + sp.Every*sim.Time(sp.Count); end > h {
			h = end
		}
	}
	return h
}

// watchdogFor derives a starvation window that no legitimate schedule of
// the perturbed scenario can exceed (the core.OS.EnableWatchdog
// contract). The lowest-priority task may legitimately wait for every
// other task's entire remaining work — overloaded sets run periodic
// cycles back-to-back without a scheduling point — so the only safe
// bound is the scenario's total work, scaled by the worst overrun, plus
// every injected stall. Detection latency is backstopped by the
// kernel-stall hook, which fires the moment the event queue drains.
func watchdogFor(s *simcheck.Scenario, p *Plan, opt Options) sim.Time {
	if opt.Watchdog > 0 {
		return opt.Watchdog
	}
	var work sim.Time
	for i := range s.Tasks {
		work += s.Tasks[i].Work()
	}
	if es := p.ExecScale; es != nil && es.Percent > 100 {
		work = work * sim.Time(es.Percent) / 100
	}
	for _, st := range p.Stalls {
		work += st.Dur
	}
	return 2*work + 50*sim.Microsecond
}

// RunScenario executes the scenario under the plan's faults with the full
// runtime-diagnosis machinery armed: the always-on wait-for-graph monitor,
// the kernel-stall diagnosis hook and the starvation watchdog. The run
// never panics or hangs on an injected fault — it ends with a structured
// diagnosis (Result.Diag / Result.Err) or drains cleanly to the horizon.
func RunScenario(s *simcheck.Scenario, plan *Plan, seed int64, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{Seed: seed, Plan: plan.Name, Opt: opt}
	policy, err := core.PolicyByName(opt.Policy, opt.Quantum)
	if err != nil {
		res.Err = err
		return res
	}
	tm := core.TimeModelCoarse
	if opt.TimeModel == "segmented" {
		tm = core.TimeModelSegmented
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	rtos := core.New(k, "PE", policy, core.WithTimeModel(tm))

	col := &telemetry.Collector{}
	agg := telemetry.NewAggregator()
	bus := telemetry.NewBus(col, agg)
	telemetry.Attach(rtos, bus) // also routes diagnoses into fault.* events
	eng := NewEngine(plan, seed, k, bus, rtos.Name())

	rt, err := personality.New(opt.Personality, rtos)
	if err != nil {
		res.Err = err
		return res
	}
	queues := map[string]personality.Queue{}
	sems := map[string]personality.Semaphore{}
	for _, c := range s.Channels {
		switch c.Kind {
		case "queue":
			queues[c.Name] = rt.NewQueue(c.Name, c.Arg)
		case "semaphore":
			sems[c.Name] = rt.NewSemaphore(c.Name, c.Arg)
		}
	}

	tasks := make([]*core.Task, len(s.Tasks))
	byName := map[string]*core.Task{}
	for i := range s.Tasks {
		spec := &s.Tasks[i]
		switch spec.Type {
		case "periodic":
			task := rt.TaskCreate(spec.Name, core.Periodic, spec.Period, spec.Work()/sim.Time(spec.Cycles), spec.Prio)
			tasks[i] = task
			k.Spawn(spec.Name, func(p *sim.Proc) {
				rt.Activate(p, task)
				for c := 0; c < spec.Cycles; c++ {
					for _, seg := range spec.Segments {
						rt.Compute(p, eng.ScaleDelay(spec.Name, seg))
					}
					rt.EndCycle(p)
				}
				rt.Terminate(p)
			})
		case "aperiodic":
			task := rt.TaskCreate(spec.Name, core.Aperiodic, 0, spec.Work(), spec.Prio)
			tasks[i] = task
			k.Spawn(spec.Name, func(p *sim.Proc) {
				if d := spec.Start + eng.ReleaseJitter(spec.Name); d > 0 {
					p.WaitFor(d)
				}
				rt.Activate(p, task)
				for _, op := range spec.Ops {
					switch op.Kind {
					case simcheck.OpDelay:
						rt.Compute(p, eng.ScaleDelay(spec.Name, op.Dur))
					case simcheck.OpSend:
						queues[op.Ch].Send(p, 1)
					case simcheck.OpRecv:
						queues[op.Ch].Recv(p)
					case simcheck.OpAcquire:
						sems[op.Ch].Acquire(p)
					}
				}
				rt.Terminate(p)
			})
		}
		byName[spec.Name] = tasks[i]
	}

	for _, irq := range s.IRQs {
		irq := irq
		sem := sems[irq.Sem]
		p := k.Spawn("irq:"+irq.Name, func(p *sim.Proc) {
			p.WaitFor(irq.At + eng.ReleaseJitter(irq.Name))
			for i := 0; i < irq.Count; i++ {
				if i > 0 {
					p.WaitFor(irq.Every)
				}
				rtos.InterruptEnter(p, irq.Name)
				if !eng.DropIRQ(irq.Name) {
					sem.Release(p)
				}
				rtos.InterruptReturn(p, irq.Name)
			}
		})
		p.SetDaemon(true)
	}

	for _, sp := range plan.Spurious {
		sp := sp
		sem := sems[sp.Sem]
		if sem == nil {
			continue // plan written for a different channel topology
		}
		p := k.Spawn("fault:spurious:"+sp.Sem, func(p *sim.Proc) {
			p.WaitFor(sp.At)
			for i := 0; i < sp.Count; i++ {
				if i > 0 {
					p.WaitFor(sp.Every)
				}
				rtos.InterruptEnter(p, "fault:spurious")
				eng.NoteSpurious(sp.Sem)
				sem.Release(p)
				rtos.InterruptReturn(p, "fault:spurious")
			}
		})
		p.SetDaemon(true)
	}

	for i, st := range plan.Stalls {
		st := st
		name := fmt.Sprintf("fault:stall%d", i)
		task := rtos.TaskCreate(name, core.Aperiodic, 0, st.Dur, stallPrio)
		task.SetDeadline(0)
		k.Spawn(name, func(p *sim.Proc) {
			if st.At > 0 {
				p.WaitFor(st.At)
			}
			eng.NoteStall(st.Dur)
			rtos.TaskActivate(p, task)
			rtos.TimeWait(p, st.Dur)
			rtos.TaskTerminate(p)
		})
	}

	for _, fl := range plan.PrioFlips {
		fl := fl
		victim := byName[fl.Task]
		if victim == nil {
			continue
		}
		p := k.Spawn("fault:prioflip:"+fl.Task, func(p *sim.Proc) {
			if fl.At > 0 {
				p.WaitFor(fl.At)
			}
			eng.NotePrioFlip(fl.Task, fl.Prio)
			victim.SetPriority(fl.Prio)
		})
		p.SetDaemon(true)
	}

	horizon := horizonFor(s, plan, opt)
	rtos.EnableWatchdog(watchdogFor(s, plan, opt))
	rtos.Start(nil)
	res.Err = k.RunUntil(horizon)
	res.End = k.Now()
	res.Diag = rtos.Diagnosis()
	if res.Diag == nil {
		// The run drained to the horizon without a live diagnosis; check
		// whether anything is still stranded on a blocking site.
		res.PostMortem = rtos.DiagnoseNow()
	}
	for _, t := range tasks {
		if t.State().Alive() {
			res.Unfinished = append(res.Unfinished, t.Name())
		}
	}
	res.Injected = eng.Injected()
	for _, e := range col.Events {
		switch e.Kind {
		case telemetry.KindFaultInject, telemetry.KindFaultDeadlock, telemetry.KindFaultStarve:
			res.Events = append(res.Events, e)
		}
	}
	agg.SetEnd(res.End)
	res.Report = agg.Report()
	return res
}
