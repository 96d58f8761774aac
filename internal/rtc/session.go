package rtc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Session is a workload instantiated on the engine but not (fully) run:
// the checkpointable form of Run. Build one with NewSession, advance it
// with RunUntil (possibly in several steps), capture or fork it with
// Snapshot/Restore, and assemble the final Result with Finish. Run is
// exactly NewSession + RunUntil(Horizon) + Finish, so partial runs and
// restored runs share every code path with the one-shot harness.
type Session struct {
	w    Workload
	name string
	pers string

	k      *kernel
	os     *osState
	bodies []frame
	chans  []chanRef // declaration order

	err error

	// kern and osv are what k and os point at: the kernel and the OS
	// state share the session's allocation.
	kern kernel
	osv  osState
}

// NewSession builds the workload's kernel, OS state, channels, tasks and
// daemon machines without running anything. Each bus is attached to the
// scheduler, as RunGoroutine attaches its buses, and receives the
// workload's markers whether or not w.Trace records them too.
// Configuration errors that Run reports via Result.Err are returned
// directly; one of them is CPUs > 1, since the engine models one CPU.
func NewSession(w Workload, bus ...*telemetry.Bus) (*Session, error) {
	s := &Session{}
	if err := s.init(w, bus); err != nil {
		return nil, err
	}
	return s, nil
}

// init is Run's construction phase. The declaration/spawn order fixes
// task ids, resource order, and the time-zero activation order, all of
// which the engine-equivalence suite pins against the goroutine kernel.
func (s *Session) init(w Workload, bus []*telemetry.Bus) error {
	if w.CPUs > 1 {
		return fmt.Errorf("rtc: the run-to-completion engine models one CPU, not %d; RunGoroutine runs the global scheduler", w.CPUs)
	}
	name := w.Name
	if name == "" {
		name = "PE"
	}
	pers := w.Personality
	if pers == "" {
		pers = "generic"
	}
	if !personality.Valid(w.Personality) {
		return fmt.Errorf("rtc: unknown personality %q", w.Personality)
	}
	s.w, s.name, s.pers = w, name, pers

	nTasks, nMachines := buildSize(w)
	k, os := &s.kern, &s.osv
	if err := os.SetupNamed(name, w.Policy, w.Quantum, w.TimeModel); err != nil {
		return err
	}
	os.k, os.tasks = k, k.init(os, nMachines, nTasks)
	os.Reserve(nTasks)
	os.rec, os.mark = observe(&os.Sched, name, w.Trace, bus)
	if pers == "osek" {
		os.SetPreemptFrontReinsert(true)
	}
	s.k, s.os = k, os

	// Channels in declaration order (resource order feeds findCycle).
	s.chans = make([]chanRef, len(w.Channels))
	for i, c := range w.Channels {
		var err error
		if s.chans[i], err = newChannel(os, pers, c); err != nil {
			return fmt.Errorf("rtc: %w", err)
		}
	}

	// Hierarchical (SDL) workloads elaborate a behavior tree instead of a
	// flat task set; see initHier.
	if w.Top != "" {
		if err := s.initHier(w); err != nil {
			return err
		}
		s.spawnWatchdog()
		os.StartAt(k.now, nil)
		return nil
	}

	// Tasks: create all control blocks first (ids fix diagnosis order),
	// then spawn their machines in the same order RunGoroutine
	// spawns processes. Each body kind comes from one slab chunk.
	periodic := 0
	for _, td := range w.Tasks {
		if td.Type == "periodic" {
			periodic++
		}
	}
	var pbs slab[fPeriodicBody]
	var abs slab[fAperiodicBody]
	pbs.reserve(periodic)
	abs.reserve(len(w.Tasks) - periodic)
	bodies := make([]frame, len(w.Tasks))
	for i, td := range w.Tasks {
		switch td.Type {
		case "periodic":
			os.newTask(td.Name, core.Periodic, td.Period, td.Prio)
			pb := pbs.take()
			*pb = fPeriodicBody{segments: td.Segments, cycles: td.Cycles}
			bodies[i] = pb
		case "aperiodic":
			os.newTask(td.Name, core.Aperiodic, 0, td.Prio)
			ops, err := s.bindOps(td.Ops)
			if err != nil {
				return err
			}
			repeat := td.Repeat
			if repeat < 1 {
				repeat = 1
			}
			ab := abs.take()
			*ab = fAperiodicBody{start: td.Start, ops: ops, repeat: repeat}
			bodies[i] = ab
		default:
			return fmt.Errorf("rtc: unknown task type %q", td.Type)
		}
	}
	tasks := os.Tasks()
	for i, td := range w.Tasks {
		daemon := td.Type == "periodic" && td.Cycles == 0
		os.bind(tasks[i], k.spawn(td.Name, bodies[i], daemon))
	}
	for _, irq := range w.IRQs {
		sem := s.channel(irq.Sem, "semaphore")
		if sem == nil {
			return fmt.Errorf("rtc: irq %q releases unknown semaphore %q", irq.Name, irq.Sem)
		}
		body := &fIRQBody{name: irq.Name, sem: sem,
			at: irq.At, every: irq.Every, count: irq.Count}
		k.spawn("irq:"+irq.Name, body, true)
	}
	s.spawnWatchdog()
	s.bodies = bodies

	os.StartAt(k.now, nil)
	return nil
}

// observe makes a recorder named name (when on) and attaches it and the
// buses to the scheduler through one sink, the target of the workload's
// markers: both engines' observer set-up. It returns the recorder, or
// nil, and the target, or nil when there is nothing to observe.
func observe(s *core.Sched, name string, on bool, bus []*telemetry.Bus) (*trace.Recorder, telemetry.Sink) {
	var rec *trace.Recorder
	if on {
		rec = trace.New(name)
	}
	to := trace.Target(rec, bus)
	if to != nil {
		telemetry.AttachSched(s, to)
	}
	return rec, to
}

// channel returns the declared channel of the given kind named name, or
// nil.
func (s *Session) channel(name, kind string) *chanRef {
	if i := findChannel(s.w.Channels, name, kind); i >= 0 {
		return &s.chans[i]
	}
	return nil
}

// spawnWatchdog starts the workload's watchdog machine, if it has one.
func (s *Session) spawnWatchdog() {
	if w := s.w.WatchdogWindow; w > 0 {
		body := &fWatchdogBody{window: w, wd: core.NewWatchdog()}
		s.k.spawn("watchdog:"+s.name, body, true)
	}
}

// buildSize counts the tasks and machines a build of w creates, which
// size the session's first slab chunks. A hierarchical workload starts
// with its root task and an ISR and a stimulus machine per interrupt;
// its par forks take further chunks as they run.
func buildSize(w Workload) (tasks, machines int) {
	tasks, machines = len(w.Tasks), len(w.Tasks)+len(w.IRQs)
	if w.Top != "" {
		tasks, machines = 1, 1+2*len(w.IRQs)
	}
	if w.WatchdogWindow > 0 {
		machines++
	}
	return tasks, machines
}

// Now returns the session's current simulated time.
func (s *Session) Now() Time { return s.k.now }

// Err returns the first simulation error observed by RunUntil.
func (s *Session) Err() error { return s.err }

// RunUntil advances the simulation up to and including limit (inclusive,
// like sim.Kernel.RunUntil); a later call with a larger limit resumes it.
// The first error (deadlock, watchdog diagnosis) sticks.
func (s *Session) RunUntil(limit Time) error {
	if s.err != nil {
		return s.err
	}
	if err := s.k.runUntil(limit); err != nil {
		s.err = err
	}
	return s.err
}

// Finish assembles the Result exactly as Run does after its horizon is
// reached. The session can keep running (RunUntil with a later limit)
// after a Finish: the result is a snapshot of the current state.
func (s *Session) Finish() *Result {
	os := s.os
	tasks := os.Tasks()[:len(s.bodies)] // a flat workload's own tasks
	res := &Result{Personality: s.pers, Tasks: make([]TaskResult, 0, len(tasks))}
	res.Err = s.err
	res.End = s.k.now
	res.Trace = os.rec
	res.Stats = os.StatsSnapshot()
	res.Diag = os.Diagnosis()
	if res.Diag == nil {
		res.Diag = os.DiagnoseStall(s.k.now, os.daemon)
	}
	res.Conservation = os.Conservation(s.k.now)
	for i, t := range tasks {
		var resp Time
		if pb, ok := s.bodies[i].(*fPeriodicBody); ok {
			resp = pb.resp
		}
		res.Tasks = append(res.Tasks, taskResult(t, resp))
	}
	return res
}

// taskResult is a task's outcome; resp is its worst response time.
func taskResult(t *core.Task, resp Time) TaskResult {
	return TaskResult{
		Name:        t.Name(),
		Prio:        t.Priority(),
		Terminated:  t.State() == core.TaskTerminated,
		Activations: t.Activations(),
		Missed:      t.MissedDeadlines(),
		CPUTime:     t.CPUTime(),
		MaxResp:     resp,
	}
}
