package simcheck

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/smp"
	"repro/internal/trace"
)

// Config selects one point of the scheduling matrix a scenario runs on.
type Config struct {
	Policy    string   // "priority","fcfs","rr","edf","rm" (CPUs=1); "g-fp","g-edf" (CPUs>1)
	TimeModel string   // "coarse" or "segmented"
	CPUs      int      // 1: core.OS single PE; >1: smp.OS global scheduler
	Quantum   sim.Time // round-robin slice ("rr" only)

	// Personality selects the RTOS service surface the scenario's tasks
	// program against ("" or "generic", "itron", "osek"; CPUs=1 only — the
	// SMP model has its own service surface). The generic personality is a
	// 1:1 passthrough, so its traces are byte-identical to the pre-
	// personality runner; itron/osek change channel grant order and wakeup
	// bookkeeping, which the cross-personality differential oracle bounds.
	Personality string

	// Engine selects the execution engine: "" or "goroutine" for the
	// process-per-task simulation kernel (internal/sim), "rtc" for the
	// single-goroutine run-to-completion engine (internal/rtc). Traces
	// must be byte-identical across engines; the engine-equivalence suite
	// diffs them. SMP configs (CPUs>1) always use the goroutine kernel —
	// the rtc engine models one CPU.
	Engine string

	// CheckpointAt, when non-zero, runs the scenario through a snapshot/
	// restore cycle at that instant instead of straight to the horizon: the
	// run is paused, checkpointed, a fresh session is rebuilt from the
	// checkpoint bytes alone, and it runs to the horizon. The result must
	// be byte-identical to the uninterrupted run — the checkpoint-
	// equivalence oracle diffs them. Engine must be "rtc" and CPUs 1: the
	// goroutine kernel's process stacks cannot be serialized, and the SMP
	// model has no checkpoint support.
	CheckpointAt sim.Time
}

// Segmented reports whether the config uses the interruptible time model.
func (c Config) Segmented() bool { return c.TimeModel == "segmented" }

func (c Config) String() string {
	s := fmt.Sprintf("%s/%s/%dcpu", c.Policy, c.TimeModel, c.CPUs)
	if c.Personality != "" {
		s += "/" + c.Personality
	}
	if c.Engine != "" && c.Engine != "goroutine" {
		s += "/" + c.Engine
	}
	if c.CheckpointAt > 0 {
		s += fmt.Sprintf("/ck@%v", c.CheckpointAt)
	}
	return s
}

// Matrix returns every configuration the scenario is eligible for: all
// five uniprocessor policies under both time models and all three RTOS
// personalities, plus the global SMP policies for channel-free scenarios
// (the SMP model's service surface, generic personality only).
func Matrix(s *Scenario) []Config {
	var out []Config
	for _, tm := range []string{"coarse", "segmented"} {
		for _, pers := range []string{"", personality.ITRON, personality.OSEK} {
			for _, pol := range []string{"priority", "fcfs", "rr", "edf", "rm"} {
				cfg := Config{Policy: pol, TimeModel: tm, CPUs: 1, Personality: pers}
				if pol == "rr" {
					cfg.Quantum = 25 * sim.Microsecond
				}
				out = append(out, cfg)
			}
		}
		if s.ChannelFree() {
			for _, pol := range []string{"g-fp", "g-edf"} {
				out = append(out, Config{Policy: pol, TimeModel: tm, CPUs: 2})
			}
		}
	}
	return out
}

// TaskOutcome is one task's observable result of a run.
type TaskOutcome struct {
	Name        string
	Index       int
	Terminated  bool
	Activations int
	Missed      int
	CPUTime     sim.Time
	MaxResp     sim.Time // periodic, single-PE: max(completion - release) over cycles
}

// RunResult is everything the invariant checker and oracles consume.
type RunResult struct {
	Config  Config
	Err     error // simulation error (deadlock); invariants are skipped
	End     sim.Time
	Trace   []byte         // canonical serialization (determinism oracle)
	Records []trace.Record // single-PE runs
	Events  []SMPEvent     // SMP runs
	Stats   core.Stats     // single-PE runs
	SMP     smp.Stats      // SMP runs
	Tasks   []TaskOutcome

	// Diag is the run's runtime diagnosis (core/diagnosis.go). Scenarios
	// are deadlock-free by construction, so any diagnosis here is a
	// detector false positive — CheckRun reports it as a violation.
	Diag *core.DiagnosisError

	conservation error // core.OS.CheckConservation result
}

// watchdogWindow is the starvation-watchdog window the matrix arms every
// run with: the lowest-ranked task may legitimately wait for all other
// work (overloaded sets run cycles back-to-back, SMP tasks wait for a
// slot), so only total work bounds a legitimate dispatch gap.
func watchdogWindow(s *Scenario) sim.Time {
	var work sim.Time
	for i := range s.Tasks {
		work += s.Tasks[i].Work()
	}
	return 2*work + 50*sim.Microsecond
}

// SMPEvent is one global-scheduler dispatch/release observation.
type SMPEvent struct {
	At      sim.Time
	CPU     int
	Task    string
	Release bool // false: dispatch, true: slot vacated
}

func (e SMPEvent) String() string {
	verb := "dispatch"
	if e.Release {
		verb = "release"
	}
	return fmt.Sprintf("%-10s %s cpu%d %s", e.At, verb, e.CPU, e.Task)
}

// Run simulates the scenario under the given config and returns the
// collected trace, statistics and per-task outcomes.
func Run(s *Scenario, cfg Config) *RunResult {
	switch cfg.Engine {
	case "", "goroutine", "rtc":
	default:
		return &RunResult{Config: cfg,
			Err: fmt.Errorf("simcheck: unknown engine %q (want \"goroutine\" or \"rtc\")", cfg.Engine)}
	}
	if cfg.CheckpointAt > 0 {
		if cfg.CPUs > 1 {
			return &RunResult{Config: cfg,
				Err: fmt.Errorf("simcheck: CheckpointAt requires CPUs=1 (the SMP model has no checkpoint support)")}
		}
		if cfg.Engine != "rtc" {
			return &RunResult{Config: cfg,
				Err: fmt.Errorf("simcheck: CheckpointAt requires the rtc engine (the goroutine kernel has no checkpoint support)")}
		}
		return runRTCCheckpointed(s, cfg)
	}
	if cfg.CPUs > 1 {
		if cfg.Personality != "" {
			// Personalities are uniprocessor kernel APIs layered over
			// core.OS services; the global SMP scheduler has its own task
			// model, so the combination is a configuration error rather
			// than a silently ignored axis.
			return &RunResult{Config: cfg,
				Err: fmt.Errorf("simcheck: personality %q requires CPUs=1", cfg.Personality)}
		}
		// The rtc engine is uniprocessor; SMP always runs on the
		// goroutine kernel regardless of Engine.
		return runSMP(s, cfg)
	}
	w := BuildRTCWorkload(s, cfg)
	if cfg.Engine == "rtc" {
		return assemble(cfg, rtc.Run(w))
	}
	return assemble(cfg, rtc.RunGoroutine(w))
}

// BuildRTCWorkload translates the scenario into the engines' workload
// form under the config's policy/time-model/personality axes: rtc.Run
// and rtc.RunGoroutine both execute it. Exported so the DSE layer can
// checkpoint-fork simcheck scenarios.
func BuildRTCWorkload(s *Scenario, cfg Config) rtc.Workload {
	tm := core.TimeModelCoarse
	if cfg.Segmented() {
		tm = core.TimeModelSegmented
	}
	w := rtc.Workload{
		Name:           "PE",
		Policy:         cfg.Policy,
		Quantum:        cfg.Quantum,
		TimeModel:      tm,
		Personality:    cfg.Personality,
		WatchdogWindow: watchdogWindow(s),
		Horizon:        s.Horizon(),
		Trace:          true,
	}
	for _, c := range s.Channels {
		w.Channels = append(w.Channels, rtc.ChannelDef{Name: c.Name, Kind: c.Kind, Arg: c.Arg})
	}
	for i := range s.Tasks {
		spec := &s.Tasks[i]
		td := rtc.TaskDef{
			Name:     spec.Name,
			Type:     spec.Type,
			Prio:     spec.Prio,
			Period:   spec.Period,
			Cycles:   spec.Cycles,
			Segments: spec.Segments,
			Start:    spec.Start,
		}
		for _, op := range spec.Ops {
			td.Ops = append(td.Ops, rtc.Op{Kind: op.Kind, Dur: op.Dur, Ch: op.Ch})
		}
		w.Tasks = append(w.Tasks, td)
	}
	for _, irq := range s.IRQs {
		w.IRQs = append(w.IRQs, rtc.IRQDef{Name: irq.Name, Sem: irq.Sem,
			At: irq.At, Every: irq.Every, Count: irq.Count})
	}
	return w
}

// assemble maps an rtc.Result, from either engine, into the RunResult
// shape every oracle consumes.
func assemble(cfg Config, r *rtc.Result) *RunResult {
	res := &RunResult{Config: cfg}
	res.Err = r.Err
	res.End = r.End
	res.Diag = r.Diag
	res.Records = r.Records
	res.Stats = r.Stats
	res.conservation = r.Conservation
	for i, t := range r.Tasks {
		res.Tasks = append(res.Tasks, TaskOutcome{
			Name:        t.Name,
			Index:       i,
			Terminated:  t.Terminated,
			Activations: t.Activations,
			Missed:      t.Missed,
			CPUTime:     t.CPUTime,
			MaxResp:     t.MaxResp,
		})
	}
	res.Trace = serializeSingle(res)
	return res
}

// smpRecorder collects SMPEvents via the smp.Observer hook.
type smpRecorder struct{ events []SMPEvent }

func (r *smpRecorder) OnDispatch(at sim.Time, cpu int, t *smp.Task) {
	r.events = append(r.events, SMPEvent{At: at, CPU: cpu, Task: t.Name()})
}

func (r *smpRecorder) OnRelease(at sim.Time, cpu int, t *smp.Task) {
	r.events = append(r.events, SMPEvent{At: at, CPU: cpu, Task: t.Name(), Release: true})
}

// runSMP executes a channel-free scenario on the global SMP scheduler.
func runSMP(s *Scenario, cfg Config) *RunResult {
	res := &RunResult{Config: cfg}
	var policy smp.Policy
	switch cfg.Policy {
	case "g-fp":
		policy = smp.FixedPriority{}
	case "g-edf":
		policy = smp.GEDF{}
	default:
		res.Err = fmt.Errorf("simcheck: unknown SMP policy %q", cfg.Policy)
		return res
	}
	k := sim.NewKernel()
	os := smp.New(k, "SMP", policy, cfg.CPUs, cfg.Segmented())
	defer k.Shutdown()
	rec := &smpRecorder{}
	os.Observe(rec)

	tasks := make([]*smp.Task, len(s.Tasks))
	for i := range s.Tasks {
		spec := &s.Tasks[i]
		switch spec.Type {
		case "periodic":
			task := os.TaskCreate(spec.Name, core.Periodic, spec.Period, spec.Work()/sim.Time(spec.Cycles), spec.Prio)
			tasks[i] = task
			k.Spawn(spec.Name, func(p *sim.Proc) {
				os.TaskActivate(p, task)
				for c := 0; c < spec.Cycles; c++ {
					for _, seg := range spec.Segments {
						os.TimeWait(p, seg)
					}
					os.TaskEndCycle(p)
				}
				os.TaskTerminate(p)
			})
		case "aperiodic":
			task := os.TaskCreate(spec.Name, core.Aperiodic, 0, spec.Work(), spec.Prio)
			tasks[i] = task
			k.Spawn(spec.Name, func(p *sim.Proc) {
				if spec.Start > 0 {
					p.WaitFor(spec.Start)
				}
				os.TaskActivate(p, task)
				for _, op := range spec.Ops {
					if op.Kind == OpDelay {
						os.TimeWait(p, op.Dur)
					}
				}
				os.TaskTerminate(p)
			})
		}
	}

	os.EnableWatchdog(watchdogWindow(s))
	res.Err = k.RunUntil(s.Horizon())
	res.End = k.Now()
	res.Diag = os.Diagnosis()
	res.Events = rec.events
	res.SMP = os.StatsSnapshot()
	for i, t := range tasks {
		res.Tasks = append(res.Tasks, TaskOutcome{
			Name:        t.Name(),
			Index:       i,
			Terminated:  t.State() == core.TaskTerminated,
			Activations: t.Activations(),
			Missed:      t.MissedDeadlines(),
			CPUTime:     t.CPUTime(),
		})
	}
	res.Trace = serializeSMP(res)
	return res
}

// serializeSingle renders a single-PE run to its canonical byte form: the
// full record stream plus the counters and per-task outcomes. Two runs of
// the same (scenario, config) must produce identical bytes.
func serializeSingle(res *RunResult) []byte {
	var b bytes.Buffer
	for _, r := range res.Records {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "stats %+v end %v\n", res.Stats, res.End)
	writeOutcomes(&b, res.Tasks)
	return b.Bytes()
}

// serializeSMP renders an SMP run to its canonical byte form.
func serializeSMP(res *RunResult) []byte {
	var b bytes.Buffer
	for _, e := range res.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "stats %+v end %v\n", res.SMP, res.End)
	writeOutcomes(&b, res.Tasks)
	return b.Bytes()
}

func writeOutcomes(b *bytes.Buffer, tasks []TaskOutcome) {
	for _, t := range tasks {
		fmt.Fprintf(b, "task %s terminated=%v act=%d missed=%d cpu=%v resp=%v\n",
			t.Name, t.Terminated, t.Activations, t.Missed, t.CPUTime, t.MaxResp)
	}
}
