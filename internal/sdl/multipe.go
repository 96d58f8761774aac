package sdl

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// RunMapped elaborates and simulates a multi-PE model: every child of the
// top par composition executes on its mapped processing element (software
// PEs run an RTOS instance under the given policy/time model, hardware
// PEs run unscheduled), with inter-PE communication over the declared
// buses and links — the mapping step of the design flow, driven from the
// model file. It returns the shared trace and the per-PE OS instances
// (software PEs only). An optional telemetry bus is attached to every
// software PE's RTOS instance, so its events carry per-PE names, and
// receives every PE's markers.
func (m *Model) RunMapped(policy core.Policy, tm core.TimeModel, bus ...*telemetry.Bus) (*trace.Recorder, map[string]*core.OS, error) {
	if !m.MultiPE() {
		return nil, nil, fmt.Errorf("sdl: RunMapped on a model without pe declarations")
	}
	k := sim.NewKernel()
	rec := trace.New("sdl-mapped")
	to := trace.Target(rec, bus)

	pes := map[string]*arch.PE{}
	oss := map[string]*core.OS{}
	rts := map[string]personality.Runtime{}
	for _, pd := range m.PEs {
		if pd.SW {
			pe := arch.NewSWPE(k, pd.Name, policy, core.WithTimeModel(tm))
			telemetry.Attach(pe.OS(), to)
			pes[pd.Name] = pe
			oss[pd.Name] = pe.OS()
			// Every software PE runs its own instance of the model's
			// personality; hardware PEs have no RTOS and keep spec channels.
			rt, err := personality.New(m.Personality, pe.OS())
			if err != nil {
				return nil, nil, err
			}
			rts[pd.Name] = rt
		} else {
			pes[pd.Name] = arch.NewHWPE(k, pd.Name)
		}
	}
	buses := map[string]*arch.Bus{}
	for _, bd := range m.Buses {
		buses[bd.Name] = arch.NewBus(k, bd.Name, bd.ArbDelay, bd.PerByte)
	}
	links := map[string]*arch.Link[int64]{}
	for _, ld := range m.Links {
		links[ld.Name] = arch.NewLink[int64](buses[ld.Bus], ld.Name,
			pes[ld.From], pes[ld.To], ld.Bytes, 0)
	}

	// Determine which PE owns each plain channel: the PE of the top-level
	// subtree(s) using it — cross-PE use of a non-link channel is an
	// error, since its synchronization layer must live on one PE.
	childPE := map[string]string{}
	for _, md := range m.Maps {
		childPE[md.Behavior] = md.PE
	}
	top := m.composeByName(m.Top)
	chanPE := map[string]string{}
	for _, childName := range top.Children {
		pe := childPE[childName]
		for _, ch := range m.channelsUsedBy(childName) {
			if m.isLink(ch) {
				continue
			}
			if owner, ok := chanPE[ch]; ok && owner != pe {
				return nil, nil, fmt.Errorf(
					"sdl: channel %q used from PEs %q and %q; declare it as a link", ch, owner, pe)
			}
			chanPE[ch] = pe
		}
	}

	// Per-PE instances: local channels plus the shared links.
	insts := map[string]*instance{}
	instFor := func(pe string) *instance {
		inst, ok := insts[pe]
		if !ok {
			inst = newInstance()
			inst.links = links
			insts[pe] = inst
		}
		return inst
	}
	for _, cd := range m.Channels {
		owner, used := chanPE[cd.Name]
		if !used {
			owner = m.PEs[0].Name // unused channels: arbitrary home
		}
		instFor(owner).makeChannel(cd, pes[owner].Factory(), rts[owner])
	}

	// Interrupts attach to the PE owning the released semaphore.
	for _, d := range m.IRQs {
		d := d
		owner, ok := chanPE[d.Releases]
		if !ok {
			return nil, nil, fmt.Errorf("sdl: irq %q releases semaphore %q that no behavior uses", d.Name, d.Releases)
		}
		sem := insts[owner].sems[d.Releases]
		irq := pes[owner].AttachISR(d.Name, 0, func(p *sim.Proc) { sem.Release(p) })
		stim := k.Spawn(d.Name+".stim", func(p *sim.Proc) {
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

	// Build and launch each top-level child on its PE.
	mapping := m.mapping()
	for _, childName := range top.Children {
		peName := childPE[childName]
		inst := instFor(peName)
		root, err := m.buildTree(childName, inst, map[string]bool{})
		if err != nil {
			return nil, nil, err
		}
		if os, sw := oss[peName]; sw {
			refine.RunArchitecture(k, os, to, root, mapping)
		} else {
			refine.RunUnscheduled(k, rec, to, root)
		}
	}
	for _, os := range oss {
		os.Start(nil)
	}
	return rec, oss, k.Run()
}

// composeByName returns the compose declaration (Validate guarantees the
// multi-PE top exists and is a par compose).
func (m *Model) composeByName(name string) *ComposeDecl {
	for i := range m.Composes {
		if m.Composes[i].Name == name {
			return &m.Composes[i]
		}
	}
	return nil
}

// isLink reports whether name is a declared link.
func (m *Model) isLink(name string) bool {
	for _, l := range m.Links {
		if l.Name == name {
			return true
		}
	}
	return false
}

// channelsUsedBy walks the subtree rooted at name collecting the channel
// names its statements touch.
func (m *Model) channelsUsedBy(name string) []string {
	seen := map[string]bool{}
	var visit func(n string)
	var scan func(stmts []Stmt)
	scan = func(stmts []Stmt) {
		for _, s := range stmts {
			if s.Channel != "" {
				seen[s.Channel] = true
			}
			if s.Op == OpRepeat {
				scan(s.Body)
			}
		}
	}
	visit = func(n string) {
		for _, b := range m.Behaviors {
			if b.Name == n {
				scan(b.Stmts)
				return
			}
		}
		for _, c := range m.Composes {
			if c.Name == n {
				for _, k := range c.Children {
					visit(k)
				}
				return
			}
		}
	}
	visit(name)
	out := make([]string, 0, len(seen))
	for ch := range seen {
		out = append(out, ch)
	}
	return out
}

// buildTree recursively elaborates a behavior subtree against one PE's
// channel instance.
func (m *Model) buildTree(name string, inst *instance, visiting map[string]bool) (*refine.Behavior, error) {
	if visiting[name] {
		return nil, fmt.Errorf("sdl: behavior cycle through %q", name)
	}
	visiting[name] = true
	defer delete(visiting, name)

	for _, b := range m.Behaviors {
		if b.Name == name {
			b := b
			return refine.Leaf(b.Name, func(x refine.Exec) {
				inst.exec(x, b.Stmts)
			}), nil
		}
	}
	for _, c := range m.Composes {
		if c.Name == name {
			kids := make([]*refine.Behavior, 0, len(c.Children))
			for _, k := range c.Children {
				child, err := m.buildTree(k, inst, visiting)
				if err != nil {
					return nil, err
				}
				kids = append(kids, child)
			}
			if c.Parallel {
				return refine.Par(c.Name, kids...), nil
			}
			return refine.Seq(c.Name, kids...), nil
		}
	}
	return nil, fmt.Errorf("sdl: unknown behavior %q", name)
}
