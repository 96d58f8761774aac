// Package simcheck is a deterministic, seed-driven property-based test
// harness for the RTOS model: it generates random task sets (periodic and
// aperiodic tasks, random priorities, periods and execution segments,
// random IRQ release patterns and random channel topologies), runs each
// set through the scheduler across the full configuration matrix (every
// scheduling policy × coarse/segmented time model × single-PE and SMP),
// and checks structural scheduling invariants plus differential oracles
// on the resulting traces:
//
//   - at most one task occupies a CPU at any instant (per PE / per SMP
//     slot), with timestamps monotone and IRQ enter/return balanced;
//   - under fixed-priority preemptive policies a ready higher-priority
//     task never waits across a time step while a lower-priority task
//     runs, except for the coarse time model's delay-granularity window
//     (paper Section 4.3, Figure 8's t4 → t4');
//   - busy + idle (+ context-switch overhead) time exactly partitions the
//     simulated span (core.OS.CheckConservation);
//   - coarse and segmented time models agree on total busy time, per-task
//     CPU time, activation counts and completion sets once all work has
//     drained;
//   - observed response times of schedulable periodic tasks respect an
//     independently computed response-time-analysis (RTA) upper bound;
//   - the same seed replays to a byte-identical trace (the determinism
//     property any future parallel-kernel work must preserve).
//
// Failing scenarios shrink to minimal reproducers (cmd/simfuzz writes
// them to testdata/simcheck/).
package simcheck

import (
	"encoding/json"
	"fmt"

	"repro/internal/channel"
	"repro/internal/sim"
)

// Op kinds of an aperiodic task program.
const (
	OpDelay   = "delay"   // modeled execution time (TimeWait)
	OpSend    = "send"    // blocking send on a queue channel
	OpRecv    = "recv"    // blocking receive on a queue channel
	OpAcquire = "acquire" // semaphore acquire (released by IRQs or initial count)
)

// Op is one statement of an aperiodic task's program.
type Op struct {
	Kind string   `json:"kind"`
	Dur  sim.Time `json:"dur,omitempty"` // OpDelay
	Ch   string   `json:"ch,omitempty"`  // channel-using ops
}

// TaskSpec describes one task of a scenario. Periodic tasks are pure
// compute (their per-cycle work is Segments, repeated Cycles times);
// aperiodic tasks run a program of delay and channel operations once.
type TaskSpec struct {
	Name     string     `json:"name"`
	Type     string     `json:"type"` // "periodic" or "aperiodic"
	Prio     int        `json:"prio"`
	Period   sim.Time   `json:"period,omitempty"`
	Cycles   int        `json:"cycles,omitempty"`
	Segments []sim.Time `json:"segments,omitempty"`
	Start    sim.Time   `json:"start,omitempty"` // aperiodic activation offset
	Ops      []Op       `json:"ops,omitempty"`
}

// Work returns the task's total modeled execution time.
func (t *TaskSpec) Work() sim.Time {
	var w sim.Time
	if t.Type == "periodic" {
		for _, s := range t.Segments {
			w += s
		}
		return w * sim.Time(t.Cycles)
	}
	for _, op := range t.Ops {
		if op.Kind == OpDelay {
			w += op.Dur
		}
	}
	return w
}

// ChannelSpec declares a channel of the scenario's topology.
type ChannelSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "queue" or "semaphore"
	Arg  int    `json:"arg"`  // queue capacity / semaphore initial count
}

// IRQSpec is an external interrupt source releasing a semaphore Count
// times starting at At, spaced Every apart (the paper's bus-driver ISR
// pattern).
type IRQSpec struct {
	Name  string   `json:"name"`
	Sem   string   `json:"sem"`
	At    sim.Time `json:"at"`
	Every sim.Time `json:"every,omitempty"`
	Count int      `json:"count"`
}

// Scenario is one generated (or shrunk) task set. It is the unit the
// harness runs across the configuration matrix, and the JSON reproducer
// format cmd/simfuzz writes to testdata/simcheck/.
type Scenario struct {
	Seed     int64         `json:"seed"`
	Tasks    []TaskSpec    `json:"tasks"`
	Channels []ChannelSpec `json:"channels,omitempty"`
	IRQs     []IRQSpec     `json:"irqs,omitempty"`
}

// ChannelFree reports whether the scenario uses no channels or IRQs (the
// subset the SMP scheduler's service surface supports).
func (s *Scenario) ChannelFree() bool {
	return len(s.Channels) == 0 && len(s.IRQs) == 0
}

// AllPeriodic reports whether every task is periodic.
func (s *Scenario) AllPeriodic() bool {
	for i := range s.Tasks {
		if s.Tasks[i].Type != "periodic" {
			return false
		}
	}
	return true
}

// Horizon returns a simulation end time by which every interleaving of
// the scenario must have drained: all periodic release windows, all
// start/IRQ offsets, plus twice the total work as scheduling slack. The
// bound is intentionally loose — simulation cost is driven by event
// count, not by the horizon.
func (s *Scenario) Horizon() sim.Time {
	var horizon sim.Time = sim.Millisecond
	var work sim.Time
	for i := range s.Tasks {
		t := &s.Tasks[i]
		work += t.Work()
		if t.Type == "periodic" {
			horizon += t.Period * sim.Time(t.Cycles+1)
		} else {
			horizon += t.Start
		}
	}
	for _, irq := range s.IRQs {
		horizon += irq.At + irq.Every*sim.Time(irq.Count)
	}
	return horizon + 2*work
}

// Validate checks the scenario for structural soundness. A valid scenario
// is deadlock-free by construction: queue capacities cover all sends (so
// sends never block), every queue flows from exactly one producer to
// exactly one later-indexed consumer (so blocking receives wait only on
// tasks that make independent progress), and semaphore releases (initial
// count plus IRQ releases, which fire on timers regardless of task
// state) cover all acquires.
func (s *Scenario) Validate() error {
	if len(s.Tasks) == 0 {
		return fmt.Errorf("simcheck: no tasks")
	}
	names := map[string]int{}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.Name == "" {
			return fmt.Errorf("simcheck: task %d unnamed", i)
		}
		if _, dup := names[t.Name]; dup {
			return fmt.Errorf("simcheck: duplicate task %q", t.Name)
		}
		names[t.Name] = i
		switch t.Type {
		case "periodic":
			if t.Period <= 0 || t.Cycles <= 0 || len(t.Segments) == 0 {
				return fmt.Errorf("simcheck: periodic task %q needs period, cycles and segments", t.Name)
			}
			for _, seg := range t.Segments {
				if seg <= 0 {
					return fmt.Errorf("simcheck: task %q has non-positive segment", t.Name)
				}
			}
			if len(t.Ops) > 0 {
				return fmt.Errorf("simcheck: periodic task %q must not use channel ops", t.Name)
			}
		case "aperiodic":
			if t.Start < 0 {
				return fmt.Errorf("simcheck: task %q has negative start", t.Name)
			}
			if len(t.Ops) == 0 {
				return fmt.Errorf("simcheck: aperiodic task %q has no ops", t.Name)
			}
		default:
			return fmt.Errorf("simcheck: task %q has unknown type %q", t.Name, t.Type)
		}
	}
	chans := map[string]*ChannelSpec{}
	for i := range s.Channels {
		c := &s.Channels[i]
		if c.Kind != "queue" && c.Kind != "semaphore" {
			return fmt.Errorf("simcheck: channel %q has unknown kind %q", c.Name, c.Kind)
		}
		if _, dup := chans[c.Name]; dup {
			return fmt.Errorf("simcheck: duplicate channel %q", c.Name)
		}
		var err error
		if c.Kind == "queue" {
			err = channel.ValidateQueue(c.Name, c.Arg)
		} else {
			err = channel.ValidateSemaphore(c.Name, c.Arg)
		}
		if err != nil {
			return fmt.Errorf("simcheck: %w", err)
		}
		chans[c.Name] = c
	}
	type usage struct {
		sends, recvs, acquires int
		sender, receiver       int // task indices, -1 if none yet
	}
	use := map[string]*usage{}
	for name := range chans {
		use[name] = &usage{sender: -1, receiver: -1}
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		for _, op := range t.Ops {
			switch op.Kind {
			case OpDelay:
				if op.Dur < 0 {
					return fmt.Errorf("simcheck: task %q has negative delay", t.Name)
				}
			case OpSend, OpRecv, OpAcquire:
				c, ok := chans[op.Ch]
				if !ok {
					return fmt.Errorf("simcheck: task %q uses undeclared channel %q", t.Name, op.Ch)
				}
				u := use[op.Ch]
				switch op.Kind {
				case OpSend, OpRecv:
					if c.Kind != "queue" {
						return fmt.Errorf("simcheck: task %q %ss on non-queue %q", t.Name, op.Kind, op.Ch)
					}
					if op.Kind == OpSend {
						if u.sender >= 0 && u.sender != i {
							return fmt.Errorf("simcheck: queue %q has multiple producers", op.Ch)
						}
						u.sender = i
						u.sends++
					} else {
						if u.receiver >= 0 && u.receiver != i {
							return fmt.Errorf("simcheck: queue %q has multiple consumers", op.Ch)
						}
						u.receiver = i
						u.recvs++
					}
				case OpAcquire:
					if c.Kind != "semaphore" {
						return fmt.Errorf("simcheck: task %q acquires non-semaphore %q", t.Name, op.Ch)
					}
					u.acquires++
				}
			default:
				return fmt.Errorf("simcheck: task %q has unknown op %q", t.Name, op.Kind)
			}
		}
	}
	released := map[string]int{}
	for _, irq := range s.IRQs {
		c, ok := chans[irq.Sem]
		if !ok || c.Kind != "semaphore" {
			return fmt.Errorf("simcheck: irq %q releases non-semaphore %q", irq.Name, irq.Sem)
		}
		if irq.Count <= 0 || irq.At < 0 {
			return fmt.Errorf("simcheck: irq %q needs positive count and non-negative time", irq.Name)
		}
		if irq.Count > 1 && irq.Every <= 0 {
			return fmt.Errorf("simcheck: repeating irq %q needs positive spacing", irq.Name)
		}
		released[irq.Sem] += irq.Count
	}
	for name, c := range chans {
		u := use[name]
		switch c.Kind {
		case "queue":
			if u.sends != u.recvs {
				return fmt.Errorf("simcheck: queue %q has %d sends but %d recvs", name, u.sends, u.recvs)
			}
			if u.sends > 0 && u.sender >= u.receiver {
				return fmt.Errorf("simcheck: queue %q must flow from a lower- to a higher-indexed task", name)
			}
			if c.Arg < u.sends {
				return fmt.Errorf("simcheck: queue %q capacity %d < %d sends (sends could block)", name, c.Arg, u.sends)
			}
		case "semaphore":
			if c.Arg+released[name] < u.acquires {
				return fmt.Errorf("simcheck: semaphore %q has %d acquires but only %d releases",
					name, u.acquires, c.Arg+released[name])
			}
		}
	}
	return nil
}

// MarshalIndent renders the scenario as indented JSON (the reproducer
// format).
func (s *Scenario) MarshalIndent() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return append(b, '\n')
}

// ParseScenario decodes and validates a JSON scenario.
func ParseScenario(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("simcheck: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
