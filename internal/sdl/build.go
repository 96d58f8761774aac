package sdl

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// instance is the channel set visible to one PE's behaviors during a run.
// In single-PE runs it holds every channel; in mapped runs each PE gets
// its own instance sharing the inter-PE links. Queues and semaphores are
// held behind the personality interfaces so a model's `personality`
// directive swaps their native kind without touching the interpreter
// (handshakes have no personality mapping and stay spec-level).
type instance struct {
	queues     map[string]personality.Queue
	sems       map[string]personality.Semaphore
	handshakes map[string]*channel.Handshake
	links      map[string]*arch.Link[int64]
}

func newInstance() *instance {
	return &instance{
		queues:     map[string]personality.Queue{},
		sems:       map[string]personality.Semaphore{},
		handshakes: map[string]*channel.Handshake{},
		links:      map[string]*arch.Link[int64]{},
	}
}

// makeChannel instantiates one declared channel into inst, through the
// personality runtime when one is present (architecture models on a
// software PE) and through the PE factory otherwise (specification
// model, hardware PEs).
func (inst *instance) makeChannel(c ChannelDecl, f channel.Factory, rt personality.Runtime) {
	switch c.Kind {
	case ChanQueue:
		if rt != nil {
			inst.queues[c.Name] = rt.NewQueue(c.Name, c.Arg)
		} else {
			inst.queues[c.Name] = channel.NewQueue[int64](f, c.Name, c.Arg)
		}
	case ChanSemaphore:
		if rt != nil {
			inst.sems[c.Name] = rt.NewSemaphore(c.Name, c.Arg)
		} else {
			inst.sems[c.Name] = channel.NewSemaphore(f, c.Name, c.Arg)
		}
	case ChanHandshake:
		inst.handshakes[c.Name] = channel.NewHandshake(f, c.Name)
	}
}

// build instantiates channels, behaviors, stimuli and ISRs on a PE and
// returns the root behavior tree — the SDL equivalent of elaborating a
// SpecC design. The PE's factory performs the synchronization refinement,
// so one builder serves both models; rt (nil for the specification
// model) selects the RTOS personality carrying the channels.
func (m *Model) build(pe *arch.PE, rt personality.Runtime) (*refine.Behavior, error) {
	f := pe.Factory()
	inst := newInstance()
	for _, c := range m.Channels {
		inst.makeChannel(c, f, rt)
	}
	// In the pre-mapping views (unscheduled specification, single-PE
	// architecture) inter-PE links are still plain message channels — the
	// bus only exists after mapping.
	for _, l := range m.Links {
		inst.makeChannel(ChannelDecl{Name: l.Name, Kind: ChanQueue, Arg: 1}, f, rt)
	}

	// Interrupts: ISR releases the semaphore; a stimulus process raises
	// the line at the declared times.
	for _, d := range m.IRQs {
		d := d
		sem := inst.sems[d.Releases]
		irq := pe.AttachISR(d.Name, 0, func(p *sim.Proc) { sem.Release(p) })
		stim := pe.Kernel().Spawn(d.Name+".stim", func(p *sim.Proc) {
			p.WaitFor(d.At)
			for i := 0; i < d.Count; i++ {
				if i > 0 {
					p.WaitFor(d.Every)
				}
				irq.Raise(p)
			}
		})
		stim.SetDaemon(true)
	}

	// Behaviors: leaves first, then composites (which may reference both
	// leaves and earlier composites).
	built := map[string]*refine.Behavior{}
	for _, b := range m.Behaviors {
		b := b
		built[b.Name] = refine.Leaf(b.Name, func(x refine.Exec) {
			inst.exec(x, b.Stmts)
		})
	}
	for _, c := range m.Composes {
		kids := make([]*refine.Behavior, 0, len(c.Children))
		for _, k := range c.Children {
			child, ok := built[k]
			if !ok {
				return nil, fmt.Errorf("sdl: compose %q references %q before its declaration", c.Name, k)
			}
			kids = append(kids, child)
		}
		if c.Parallel {
			built[c.Name] = refine.Par(c.Name, kids...)
		} else {
			built[c.Name] = refine.Seq(c.Name, kids...)
		}
	}
	root, ok := built[m.Top]
	if !ok {
		return nil, fmt.Errorf("sdl: top %q not built", m.Top)
	}
	return root, nil
}

// exec interprets a statement list in a behavior body.
func (inst *instance) exec(x refine.Exec, stmts []Stmt) {
	p := x.Proc()
	for _, s := range stmts {
		switch s.Op {
		case OpDelay:
			x.Delay(s.Dur)
		case OpSend:
			if q, ok := inst.queues[s.Channel]; ok {
				q.Send(p, s.Value)
			} else {
				inst.links[s.Channel].Send(p, s.Value)
			}
		case OpRecv:
			if q, ok := inst.queues[s.Channel]; ok {
				q.Recv(p)
			} else {
				inst.links[s.Channel].Recv(p)
			}
		case OpAcquire:
			inst.sems[s.Channel].Acquire(p)
		case OpRelease:
			inst.sems[s.Channel].Release(p)
		case OpSignal:
			inst.handshakes[s.Channel].Signal(p)
		case OpWaitSig:
			inst.handshakes[s.Channel].WaitSig(p)
		case OpMarker:
			x.Marker(s.Label, s.Value)
		case OpRepeat:
			for i := 0; i < s.Count; i++ {
				inst.exec(x, s.Body)
			}
		}
	}
}

// mapping converts the task declarations into a refinement mapping.
func (m *Model) mapping() refine.Mapping {
	mp := refine.Mapping{}
	for _, t := range m.Tasks {
		spec := refine.TaskSpec{Priority: t.Priority}
		if t.Periodic {
			spec.Type = core.Periodic
			spec.Period = t.Period
			spec.WCET = t.WCET
		}
		mp[t.Behavior] = spec
	}
	return mp
}

// RunUnscheduled elaborates and simulates the specification model. The
// `personality` directive does not apply here: the specification model
// has no RTOS, so channels are always the spec-level primitives.
func (m *Model) RunUnscheduled() (*trace.Recorder, error) {
	k := sim.NewKernel()
	pe := arch.NewHWPE(k, "PE")
	rec := trace.New("sdl-spec")
	root, err := m.build(pe, nil)
	if err != nil {
		return nil, err
	}
	refine.RunUnscheduled(k, rec, rec, root)
	return rec, k.Run()
}

// RunArchitecture elaborates and simulates the RTOS-based architecture
// model under the given policy and time model; the model's `personality`
// directive (default generic) selects the RTOS API whose native channel
// kinds carry the declared queues and semaphores. An optional telemetry
// bus is attached to the RTOS instance and receives the markers too.
func (m *Model) RunArchitecture(policy core.Policy, tm core.TimeModel, bus ...*telemetry.Bus) (*trace.Recorder, *core.OS, error) {
	k := sim.NewKernel()
	pe := arch.NewSWPE(k, "PE", policy, core.WithTimeModel(tm))
	rec := trace.New("sdl-arch")
	to := trace.Target(rec, bus)
	telemetry.Attach(pe.OS(), to)
	rt, err := personality.New(m.Personality, pe.OS())
	if err != nil {
		return nil, nil, err
	}
	root, err := m.build(pe, rt)
	if err != nil {
		return nil, nil, err
	}
	refine.RunArchitecture(k, pe.OS(), to, root, m.mapping())
	pe.OS().Start(nil)
	return rec, pe.OS(), k.Run()
}
