// Package taskset loads task-set descriptions (JSON) and simulates them
// on the RTOS model — the engine behind cmd/rtossim. A set mixes periodic
// tasks (run until the horizon or for a fixed number of cycles) and
// aperiodic tasks (a start offset followed by compute segments).
package taskset

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Task describes one task of the set. Times are in microseconds to keep
// hand-written JSON readable.
type Task struct {
	Name      string  `json:"name"`
	Type      string  `json:"type"` // "periodic" (default) or "aperiodic"
	PeriodUs  float64 `json:"periodUs"`
	WcetUs    float64 `json:"wcetUs"`
	Prio      int     `json:"prio"`
	StartUs   float64 `json:"startUs"`   // aperiodic: activation time
	ComputeUs []int64 `json:"computeUs"` // aperiodic: compute segments
	Cycles    int     `json:"cycles"`    // periodic: cycles to run (0 = until horizon)
}

// Set is the top-level task-set description.
type Set struct {
	Policy      string  `json:"policy"`
	QuantumUs   float64 `json:"quantumUs"`
	TimeModel   string  `json:"timeModel"`             // "coarse" (default) or "segmented"
	Personality string  `json:"personality,omitempty"` // "generic" (default), "itron" or "osek"
	CPUs        int     `json:"cpus,omitempty"`        // 0/1: uniprocessor RTOS model; >1: global SMP scheduler
	Engine      string  `json:"engine,omitempty"`      // "goroutine" (default) or "rtc" (run-to-completion)
	HorizonMs   float64 `json:"horizonMs"`
	Tasks       []Task  `json:"tasks"`
}

// Parse decodes and validates a JSON task set.
func Parse(data []byte) (*Set, error) {
	var s Set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("taskset: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the set for structural errors: the task list, then
// the run fields (ValidateRun).
func (s *Set) Validate() error {
	if err := s.validateTasks(); err != nil {
		return err
	}
	return s.ValidateRun()
}

// validateTasks checks the task list.
func (s *Set) validateTasks() error {
	if len(s.Tasks) == 0 {
		return fmt.Errorf("taskset: no tasks")
	}
	seen := map[string]bool{}
	for i, t := range s.Tasks {
		if t.Name == "" {
			return fmt.Errorf("taskset: task %d unnamed", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("taskset: duplicate task name %q", t.Name)
		}
		seen[t.Name] = true
		switch t.Type {
		case "periodic", "":
			if t.Cycles < 0 {
				return fmt.Errorf("taskset: periodic task %q has negative cycles %d", t.Name, t.Cycles)
			}
			if t.PeriodUs <= 0 {
				return fmt.Errorf("taskset: periodic task %q needs periodUs > 0", t.Name)
			}
			if t.WcetUs <= 0 {
				return fmt.Errorf("taskset: periodic task %q needs wcetUs > 0", t.Name)
			}
			if t.WcetUs > t.PeriodUs {
				return fmt.Errorf("taskset: periodic task %q has wcetUs %g > periodUs %g (utilization > 1, can never meet a deadline)",
					t.Name, t.WcetUs, t.PeriodUs)
			}
		case "aperiodic":
			if len(t.ComputeUs) == 0 {
				return fmt.Errorf("taskset: aperiodic task %q needs computeUs", t.Name)
			}
			if t.StartUs < 0 {
				return fmt.Errorf("taskset: aperiodic task %q has negative startUs %g", t.Name, t.StartUs)
			}
			for j, c := range t.ComputeUs {
				if c < 0 {
					return fmt.Errorf("taskset: aperiodic task %q has negative computeUs[%d] = %d", t.Name, j, c)
				}
			}
		default:
			return fmt.Errorf("taskset: task %q has unknown type %q", t.Name, t.Type)
		}
	}
	return nil
}

// ValidateRun checks the fields that say how the set runs: policy,
// quantum, time model, personality, CPUs, engine and horizon. A copy of
// a validated set that changes only these fields needs only this check.
func (s *Set) ValidateRun() error {
	if s.TimeModel != "" && s.TimeModel != "coarse" && s.TimeModel != "segmented" {
		return fmt.Errorf("taskset: unknown time model %q", s.TimeModel)
	}
	if !personality.Valid(s.Personality) {
		return fmt.Errorf("taskset: unknown personality %q (have %v)", s.Personality, personality.Kinds())
	}
	if s.CPUs < 0 {
		return fmt.Errorf("taskset: negative cpus %d", s.CPUs)
	}
	if s.HorizonMs < 0 {
		return fmt.Errorf("taskset: negative horizonMs %g", s.HorizonMs)
	}
	if s.QuantumUs < 0 {
		return fmt.Errorf("taskset: negative quantumUs %g", s.QuantumUs)
	}
	switch s.Engine {
	case "", "goroutine", "rtc":
	default:
		return fmt.Errorf("taskset: unknown engine %q (have \"goroutine\", \"rtc\")", s.Engine)
	}
	if s.CPUs > 1 {
		if s.Engine == "rtc" {
			return fmt.Errorf("taskset: engine \"rtc\" models a uniprocessor; set \"cpus\" to 1 or use the goroutine engine for the global SMP scheduler")
		}
		// RTOS personalities are uniprocessor kernel APIs layered over the
		// single-PE dispatcher; the global SMP scheduler offers only the
		// generic task services. Surface the conflict here, at parse time,
		// rather than deep inside a simulation run.
		if s.Personality != "" {
			return fmt.Errorf("taskset: personality %q models a uniprocessor RTOS and cannot run on %d CPUs; set \"cpus\" to 1 or drop \"personality\" to use the global SMP scheduler",
				s.Personality, s.CPUs)
		}
		switch s.Policy {
		case "", "g-fp", "g-edf":
		default:
			return fmt.Errorf("taskset: policy %q is a uniprocessor policy; cpus %d needs \"g-fp\" or \"g-edf\"",
				s.Policy, s.CPUs)
		}
		return nil
	}
	switch s.Policy {
	case "g-fp", "g-edf":
		return fmt.Errorf("taskset: policy %q is a global SMP policy; set \"cpus\" > 1 to use it", s.Policy)
	}
	if _, _, err := s.UniPolicy(); err != nil {
		return fmt.Errorf("taskset: %v", err)
	}
	return nil
}

// TaskResult is one task's statistics after simulation.
type TaskResult struct {
	Name        string
	Prio        int
	Period      sim.Time
	WCET        sim.Time
	Activations int
	Missed      int
	CPUTime     sim.Time
}

// Result is the outcome of Run.
type Result struct {
	Policy      string
	TimeModel   core.TimeModel
	Personality string
	CPUs        int // 1 for the uniprocessor RTOS model
	Horizon     sim.Time
	End         sim.Time
	Tasks       []TaskResult
	Stats       core.Stats
	Trace       *trace.Recorder
}

// Run simulates the set and returns per-task and OS-level statistics plus
// the full trace. Every set is lowered to one rtc.Workload (see
// workload); the engine only picks the runner. rtc.Run executes it on
// one CPU; rtc.RunGoroutine on one CPU or, for cpus > 1, on the global
// SMP scheduler. Optional telemetry buses are attached to the scheduler
// on either engine. A multiprocessor run returns an empty trace: the
// single-PE trace formats have no CPU axis.
func Run(s *Set, bus ...*telemetry.Bus) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w, err := s.workload()
	if err != nil {
		return nil, err
	}
	run := rtc.RunGoroutine
	if s.Engine == "rtc" {
		run = rtc.Run
	}
	r := run(w, bus...)
	if r.Err != nil {
		return nil, r.Err
	}
	// Busy/idle/overhead accounting must partition the simulated span;
	// a violation is a scheduler bug, not a task-set property.
	if r.Conservation != nil {
		return nil, r.Conservation
	}
	r.Trace.SetName("taskset")
	res := &Result{
		Policy:      w.Policy,
		TimeModel:   w.TimeModel,
		Personality: r.Personality,
		CPUs:        max(w.CPUs, 1),
		Horizon:     w.Horizon,
		End:         r.End,
		Stats:       r.Stats,
		Trace:       r.Trace,
	}
	for i, tr := range r.Tasks {
		res.Tasks = append(res.Tasks, TaskResult{
			Name:        tr.Name,
			Prio:        tr.Prio,
			Period:      w.Tasks[i].Period,
			WCET:        us(s.Tasks[i].WcetUs),
			Activations: tr.Activations,
			Missed:      tr.Missed,
			CPUTime:     tr.CPUTime,
		})
	}
	return res, nil
}

// workload lowers a validated set to the engines' workload form: a
// periodic task computes its wcet once per cycle, an aperiodic one runs
// its compute segments after its start offset, under the policy RunPolicy
// names, on the set's CPUs.
func (s *Set) workload() (rtc.Workload, error) {
	policy, quantum, err := s.RunPolicy()
	if err != nil {
		return rtc.Workload{}, fmt.Errorf("taskset: %v", err)
	}
	w := rtc.Workload{
		Policy:      policy,
		Quantum:     quantum,
		TimeModel:   s.timeModel(),
		Personality: s.Personality,
		CPUs:        s.CPUs,
		Horizon:     s.Horizon(),
		Trace:       true,
	}
	for _, tj := range s.Tasks {
		switch tj.Type {
		case "periodic", "":
			w.Tasks = append(w.Tasks, rtc.TaskDef{
				Name:     tj.Name,
				Type:     "periodic",
				Prio:     tj.Prio,
				Period:   us(tj.PeriodUs),
				Cycles:   tj.Cycles,
				Segments: []sim.Time{us(tj.WcetUs)},
			})
		case "aperiodic":
			ops := make([]rtc.Op, 0, len(tj.ComputeUs))
			for _, c := range tj.ComputeUs {
				ops = append(ops, rtc.Op{Kind: "delay", Dur: us(float64(c))})
			}
			w.Tasks = append(w.Tasks, rtc.TaskDef{
				Name:  tj.Name,
				Type:  "aperiodic",
				Prio:  tj.Prio,
				Start: us(tj.StartUs),
				Ops:   ops,
			})
		}
	}
	return w, nil
}

// RunPolicy names the scheduling policy the set runs under and the
// quantum it runs with. On one CPU both are UniPolicy's. On several
// the global scheduler runs "g-edf" when the set names it and "g-fp"
// otherwise (Validate admits only "", "g-fp" and "g-edf" there), with no
// quantum. Runs and cache keys (dse.Canonical) both resolve the policy
// here, so a key always names what runs. On error the name is the
// set's own.
func (s *Set) RunPolicy() (string, sim.Time, error) {
	if s.CPUs > 1 {
		if s.Policy == "g-edf" {
			return "g-edf", 0, nil
		}
		return "g-fp", 0, nil
	}
	p, q, err := s.UniPolicy()
	if err != nil {
		return s.Policy, 0, err
	}
	return p.Name(), q, nil
}

// UniPolicy resolves the uniprocessor scheduling policy the set runs
// and its quantum: the policy is core's for the set's name ("priority"
// when unset; an alias such as "roundrobin" yields the policy whose Name
// is "rr"), the quantum is quantumUs, or 1 ms when that is unset or
// rounds to zero, under every round-robin name.
func (s *Set) UniPolicy() (core.Policy, sim.Time, error) {
	name := s.Policy
	if name == "" {
		name = "priority"
	}
	q := us(s.QuantumUs)
	if q <= 0 {
		q = sim.Millisecond
	}
	p, err := core.PolicyByName(name, q)
	return p, q, err
}

// timeModel returns the set's time model (coarse by default).
func (s *Set) timeModel() core.TimeModel {
	if s.TimeModel == "segmented" {
		return core.TimeModelSegmented
	}
	return core.TimeModelCoarse
}

// Horizon returns the simulated span (1 s by default).
func (s *Set) Horizon() sim.Time {
	if h := sim.Time(s.HorizonMs * 1e6); h > 0 {
		return h
	}
	return sim.Second
}

// us converts microseconds to sim.Time.
func us(v float64) sim.Time { return sim.Time(v * 1000) }
