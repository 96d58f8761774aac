package simcheck

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config selects one point of the scheduling matrix a scenario runs on.
type Config struct {
	Policy    string   // "priority","fcfs","rr","edf","rm" (CPUs=1); "g-fp","g-edf" (CPUs>1)
	TimeModel string   // "coarse" or "segmented"
	CPUs      int      // 1: one PE; >1: one core.OS with CPUs CPUs under a global policy
	Quantum   sim.Time // round-robin slice ("rr" only)

	// Personality selects the RTOS service surface the scenario's tasks
	// program against ("" or "generic", "itron", "osek"; CPUs=1 only — the
	// SMP model offers the generic task services alone). The generic
	// personality is a 1:1 passthrough, so its traces are byte-identical
	// to the pre-personality runner; itron/osek change channel grant order
	// and wakeup bookkeeping, which the cross-personality differential
	// oracle bounds.
	Personality string

	// Engine selects the execution engine: "" or "goroutine" for the
	// process-per-task simulation kernel (internal/sim), "rtc" for the
	// single-goroutine run-to-completion engine (internal/rtc). Traces
	// and telemetry streams must be identical across engines; the
	// engine-equivalence suite diffs them. SMP configs (CPUs>1) always use
	// the goroutine kernel: core.Sched schedules several CPUs, but the rtc
	// engine drives one.
	Engine string

	// CheckpointAt, when non-zero, runs the scenario through a snapshot/
	// restore cycle at that instant instead of straight to the horizon: the
	// run is paused, checkpointed, a fresh session is rebuilt from the
	// checkpoint bytes alone, and it runs to the horizon. The result must
	// be byte-identical to the uninterrupted run — the checkpoint-
	// equivalence oracle diffs them. Engine must be "rtc" and CPUs 1: the
	// goroutine kernel's process stacks cannot be serialized, and a
	// checkpoint holds one CPU.
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
	Config     Config
	Err        error // simulation error (deadlock); invariants are skipped
	End        sim.Time
	Trace      []byte            // canonical serialization (determinism oracle)
	Recorder   *trace.Recorder   // single-PE runs
	Events     []SMPEvent        // SMP runs
	Stream     []telemetry.Event // the run's telemetry stream (none for checkpointed runs)
	Stats      core.Stats        // on several CPUs, idle time is not kept
	Migrations uint64            // SMP runs
	Tasks      []TaskOutcome

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
		// The rtc engine, the only one that checkpoints, refuses CPUs > 1.
		if cfg.Engine != "rtc" {
			return &RunResult{Config: cfg,
				Err: fmt.Errorf("simcheck: CheckpointAt requires the rtc engine (the goroutine kernel has no checkpoint support)")}
		}
		return runRTCCheckpointed(s, cfg)
	}
	// Every run feeds one collector: the engine oracle compares the
	// streams, and a multiprocessor run's trace is made from its stream.
	// The rtc engine models one CPU; the global scheduler runs on the
	// goroutine kernel whatever the Engine.
	w := BuildRTCWorkload(s, cfg)
	var c telemetry.Collector
	run := rtc.RunGoroutine
	if cfg.Engine == "rtc" && cfg.CPUs <= 1 {
		run = rtc.Run
	}
	return assemble(cfg, run(w, telemetry.NewBus(&c)), c.Events...)
}

// BuildRTCWorkload translates the scenario into the engines' workload
// form under the config's policy/time-model/personality/CPU axes: rtc.Run
// and rtc.RunGoroutine both execute it on one CPU, rtc.RunGoroutine on
// several. Exported so the DSE layer can checkpoint-fork simcheck
// scenarios.
func BuildRTCWorkload(s *Scenario, cfg Config) rtc.Workload {
	tm := core.TimeModelCoarse
	if cfg.Segmented() {
		tm = core.TimeModelSegmented
	}
	w := rtc.Workload{
		Policy:         cfg.Policy,
		Quantum:        cfg.Quantum,
		TimeModel:      tm,
		Personality:    cfg.Personality,
		CPUs:           cfg.CPUs,
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

// assemble maps an rtc.Result and the run's telemetry stream, from
// either engine, into the RunResult shape every oracle consumes. A
// multiprocessor run's trace is its global-scheduler events: each
// dispatch of a task onto a CPU, and each slot it vacates (a dispatch to
// idle naming the previous task).
func assemble(cfg Config, r *rtc.Result, stream ...telemetry.Event) *RunResult {
	res := &RunResult{Config: cfg, Stream: stream}
	res.Err = r.Err
	res.End = r.End
	res.Diag = r.Diag
	res.Stats, res.Migrations = r.Stats, r.Migrations
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
	if cfg.CPUs > 1 {
		for _, e := range stream {
			switch {
			case e.Kind != telemetry.KindDispatch:
			case e.Task != "":
				res.Events = append(res.Events, SMPEvent{At: e.At, CPU: e.CPU, Task: e.Task})
			default:
				res.Events = append(res.Events, SMPEvent{At: e.At, CPU: e.CPU, Task: e.Other, Release: true})
			}
		}
		res.Trace = serializeSMP(res)
		return res
	}
	res.Recorder = r.Trace
	res.conservation = r.Conservation
	res.Trace = serializeSingle(res)
	return res
}

// serializeSingle renders a single-PE run to its canonical byte form: the
// full record stream plus the counters and per-task outcomes. Two runs of
// the same (scenario, config) must produce identical bytes.
func serializeSingle(res *RunResult) []byte {
	var b bytes.Buffer
	if res.Recorder != nil {
		res.Recorder.EventList(&b)
	}
	fmt.Fprintf(&b, "stats %+v end %v\n", res.Stats, res.End)
	writeOutcomes(&b, res.Tasks)
	return b.Bytes()
}

// serializeSMP renders an SMP run to its canonical byte form: the
// events, the counters a global scheduler keeps and the per-task
// outcomes.
func serializeSMP(res *RunResult) []byte {
	var b bytes.Buffer
	for _, e := range res.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	st := &res.Stats
	fmt.Fprintf(&b, "stats {Dispatches:%d ContextSwitches:%d Preemptions:%d Migrations:%d BusyTime:%v} end %v\n",
		st.Dispatches, st.ContextSwitches, st.Preemptions, res.Migrations, st.BusyTime, res.End)
	writeOutcomes(&b, res.Tasks)
	return b.Bytes()
}

func writeOutcomes(b *bytes.Buffer, tasks []TaskOutcome) {
	for _, t := range tasks {
		fmt.Fprintf(b, "task %s terminated=%v act=%d missed=%d cpu=%v resp=%v\n",
			t.Name, t.Terminated, t.Activations, t.Missed, t.CPUTime, t.MaxResp)
	}
}
