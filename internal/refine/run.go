package refine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TaskSpec holds the per-task parameters introduced by the refinement
// (paper Figure 5: task_create(name, type, period, wcet) plus the assigned
// priority).
type TaskSpec struct {
	Priority int
	Type     core.TaskType
	Period   sim.Time
	WCET     sim.Time
}

// Mapping assigns a TaskSpec to each behavior name that becomes a task.
// Behaviors without an entry default to aperiodic tasks with priority 100
// plus their creation order (stable but lowest precedence).
type Mapping map[string]TaskSpec

// spec returns the TaskSpec for a behavior, applying defaults.
func (m Mapping) spec(name string, order int) TaskSpec {
	if s, ok := m[name]; ok {
		return s
	}
	return TaskSpec{Priority: 100 + order, Type: core.Aperiodic}
}

// RunUnscheduled executes the behavior tree as the unscheduled
// specification model (paper Figure 2(a)): parallel compositions run
// truly concurrently on the simulation kernel. Execution segments are
// recorded to rec and markers written to mark (either may be nil). The
// returned process is the model's root; call k.Run() to simulate.
func RunUnscheduled(k *sim.Kernel, rec *trace.Recorder, mark telemetry.Sink, root *Behavior) *sim.Proc {
	if err := root.Validate(); err != nil {
		panic(err)
	}
	return k.Spawn(root.name, func(p *sim.Proc) {
		runSpec(p, rec, mark, root)
	})
}

func runSpec(p *sim.Proc, rec *trace.Recorder, mark telemetry.Sink, b *Behavior) {
	switch b.kind {
	case kindLeaf:
		b.fn(&specExec{p: p, rec: rec, mark: mark, name: b.name})
	case kindLoop, kindFSM:
		x := &specExec{p: p, rec: rec, mark: mark, name: b.name}
		execComposite(b, x, func(c *Behavior) { runSpec(p, rec, mark, c) })
	case kindSeq:
		for _, c := range b.children {
			runSpec(p, rec, mark, c)
		}
	case kindPar:
		fns := make([]sim.Func, 0, len(b.children))
		names := make([]string, 0, len(b.children))
		for _, c := range b.children {
			c := c
			names = append(names, c.name)
			fns = append(fns, func(cp *sim.Proc) { runSpec(cp, rec, mark, c) })
		}
		p.ParNamed(names, fns...)
	}
}

// specExec binds Exec to raw SLDL primitives.
type specExec struct {
	p    *sim.Proc
	rec  *trace.Recorder
	mark telemetry.Sink
	name string
}

func (x *specExec) Delay(d sim.Time) {
	if x.rec != nil {
		x.rec.SegBegin(x.p.Now(), x.name)
	}
	x.p.WaitFor(d)
	if x.rec != nil {
		x.rec.SegEnd(x.p.Now(), x.name)
	}
}

func (x *specExec) Proc() *sim.Proc      { return x.p }
func (x *specExec) Now() sim.Time        { return x.p.Now() }
func (x *specExec) BehaviorName() string { return x.name }

func (x *specExec) Marker(label string, arg int64) {
	if x.mark != nil {
		telemetry.Mark(x.mark, x.p.Now(), label, x.name, arg)
	}
}

// RunArchitecture executes the behavior tree as the RTOS-based
// architecture model of one processing element (paper Figure 2(b), the
// output of dynamic scheduling refinement shown in Figure 3(b)):
//
//   - the root behavior becomes the PE's main task (the paper's Task_PE),
//   - every child of a parallel composition becomes an RTOS task with the
//     parameters from mapping (task refinement, Figure 5),
//   - par statements are bracketed by ParStart/ParEnd (Figure 6),
//   - Exec.Delay is bound to the RTOS's TimeWait.
//
// Markers are written to mark (may be nil). The caller must have created
// os on k, should attach a recorder or bus to os before running, and must
// call os.Start. The returned process is the PE's main process.
func RunArchitecture(k *sim.Kernel, os *core.OS, mark telemetry.Sink, root *Behavior, mapping Mapping) *sim.Proc {
	if err := root.Validate(); err != nil {
		panic(err)
	}
	if os.Kernel() != k {
		panic(fmt.Sprintf("refine: OS %q belongs to a different kernel", os.Name()))
	}
	spec := mapping.spec(root.name, 0)
	main := os.TaskCreate(root.name, spec.Type, spec.Period, spec.WCET, spec.Priority)
	return k.Spawn(root.name, func(p *sim.Proc) {
		os.TaskActivate(p, main)
		runRTOS(p, os, mark, root, mapping, main)
		os.TaskTerminate(p)
	})
}

func runRTOS(p *sim.Proc, os *core.OS, mark telemetry.Sink, b *Behavior, mapping Mapping, cur *core.Task) {
	switch b.kind {
	case kindLeaf:
		b.fn(&rtosExec{p: p, os: os, mark: mark, name: b.name})
	case kindLoop, kindFSM:
		x := &rtosExec{p: p, os: os, mark: mark, name: b.name}
		execComposite(b, x, func(c *Behavior) { runRTOS(p, os, mark, c, mapping, cur) })
	case kindSeq:
		for _, c := range b.children {
			runRTOS(p, os, mark, c, mapping, cur)
		}
	case kindPar:
		// Figure 6: create the child tasks, suspend the parent in the RTOS
		// layer, fork with the SLDL par, then resume the parent.
		tasks := make([]*core.Task, len(b.children))
		for i, c := range b.children {
			s := mapping.spec(c.name, len(os.Tasks()))
			tasks[i] = os.TaskCreate(c.name, s.Type, s.Period, s.WCET, s.Priority)
		}
		pt := os.ParStart(p)
		fns := make([]sim.Func, 0, len(b.children))
		names := make([]string, 0, len(b.children))
		for i, c := range b.children {
			i, c := i, c
			names = append(names, c.name)
			fns = append(fns, func(cp *sim.Proc) {
				os.TaskActivate(cp, tasks[i])
				runRTOS(cp, os, mark, c, mapping, tasks[i])
				os.TaskTerminate(cp)
			})
		}
		p.ParNamed(names, fns...)
		os.ParEnd(p, pt)
	}
}

// rtosExec binds Exec to RTOS model calls.
type rtosExec struct {
	p    *sim.Proc
	os   *core.OS
	mark telemetry.Sink
	name string
}

func (x *rtosExec) Delay(d sim.Time)     { x.os.TimeWait(x.p, d) }
func (x *rtosExec) Proc() *sim.Proc      { return x.p }
func (x *rtosExec) Now() sim.Time        { return x.p.Now() }
func (x *rtosExec) BehaviorName() string { return x.name }

func (x *rtosExec) Marker(label string, arg int64) {
	if x.mark != nil {
		telemetry.Mark(x.mark, x.p.Now(), label, x.name, arg)
	}
}
