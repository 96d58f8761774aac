package rtc

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/core"
)

// This file extends the run-to-completion engine beyond flat task sets to
// the SDL frontend's hierarchical behaviors: sequential and parallel
// compositions over leaf statement lists, handshake channels, markers,
// and the architecture model's split stimulus/ISR interrupt shape. Every
// construct mirrors the goroutine path frame by frame
// (refine.RunArchitecture + sdl.Model.build), and channel operations,
// handshakes included, drive the same state objects, so the
// engine-equivalence suite can compare the two engines byte for byte on
// SDL models.

// --- spec-level handshake (the ISR pending latch) ---

// specHS is channel.Handshake built on the SpecFactory: the pending latch
// between an interrupt stimulus and its ISR process, with no monitor
// resource (arch.PE.AttachISR's shape). The ISR machine is the latch's
// only waiter: it waits in state mWaitEvent, and a raise wakes it.
type specHS struct {
	channel.HandshakeState
	isr *machine
}

// fISRBody is arch.PE.AttachISR's service process on a software PE with
// zero service time and a semaphore-release handler — the shape the SDL
// builder generates for every declared interrupt: wait for the latched
// request, bracket the handler with InterruptEnter/InterruptReturn.
type fISRBody struct {
	name string // interrupt line name (trace label)
	h    *specHS
	sem  *chanRef
	pc   int
}

func (f *fISRBody) step(m *machine) status {
	os := m.k.os
	for {
		switch f.pc {
		case 0, 1: // WaitSig on the spec handshake (no task); pc 1 re-checks after a wake
			if _, v := f.h.Step(os.k.now, nil, core.OpWait, 0, f.pc == 1); v.Wait {
				f.pc = 1
				m.state = mWaitEvent
				return statBlocked
			}
			f.pc = 2
		case 2: // InterruptEnter, then the handler: sem.Release
			os.IRQ(os.k.now, f.name, true)
			f.pc = 3
			return m.callOp(core.OpRelease, f.sem, 0)
		case 3: // InterruptReturn
			os.IRQ(os.k.now, f.name, false)
			f.pc = 4
			return m.decideFrom(statCall)
		case 4:
			f.pc = 0
		}
	}
}

// fStimBody is the SDL builder's interrupt stimulus daemon: wait until
// At, then raise the line Count times, Every apart. A raise latches the
// pending handshake and wakes the ISR if it waits on it (IRQ.Raise).
type fStimBody struct {
	h     *specHS
	at    Time
	every Time
	count int
	i     int
	pc    int
}

func (f *fStimBody) step(m *machine) status {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			m.sleep(f.at)
			return statBlocked
		case 1: // raise-loop head
			if f.i >= f.count {
				return statDone
			}
			f.pc = 2
			if f.i > 0 {
				m.sleep(f.every)
				return statBlocked
			}
		case 2: // Raise: latch and notify
			f.h.Step(m.k.now, nil, core.OpSignal, 0, false)
			if isr := f.h.isr; isr.state == mWaitEvent {
				isr.wakeFromEvent()
			}
			f.i++
			f.pc = 1
		}
	}
}

// --- compiled behavior tree ---

type nodeKind uint8

const (
	nLeaf nodeKind = iota
	nSeq
	nPar
)

// bNode is one elaborated node of the behavior tree. The tree is expanded
// per reference (a behavior named twice yields two nodes), so each node
// has a single execution context.
type bNode struct {
	name     string
	kind     nodeKind
	stmts    []cStmt
	children []*bNode
}

type stmtKind uint8

const (
	cDelay stmtKind = iota
	cChan
	cMarker
	cRepeat
)

// cStmt is a compiled leaf statement with its channel bound. A repeat
// keeps the frame that runs its body: the tree gives each node its own
// statements and a node runs under one machine at a time, so the frame
// is never on two stacks at once.
type cStmt struct {
	kind  stmtKind
	dur   Time
	val   int64
	label string
	op    core.ChanOp
	c     *chanRef
	body  []cStmt
	count int
	run   fStmts
}

// --- execution frames ---

// fTaskBody runs the machine's task over a behavior subtree: activate,
// execute the subtree, terminate — the body RunArchitecture gives the
// main process and every par child.
type fTaskBody struct {
	n  *bNode
	pc int
}

func (f *fTaskBody) step(m *machine) status {
	switch f.pc {
	case 0:
		f.pc = 1
		return m.callActivate()
	case 1:
		f.pc = 2
		return m.push(&fNode{n: f.n})
	default:
		m.k.os.taskTerminate(m)
		return statDone
	}
}

// fNode executes one behavior node under the machine's task: leaves run
// their statement list, seq nodes their children in order, and par nodes
// fork one task+machine per child and join (refine.runRTOS's kindPar
// bracket: TaskCreate children, ParStart, fork, join, ParEnd).
type fNode struct {
	n   *bNode
	idx int
	pc  int
}

func (f *fNode) step(m *machine) status {
	os := m.k.os
	switch f.n.kind {
	case nLeaf:
		return m.tailcall(&fStmts{name: f.n.name, list: f.n.stmts, rounds: 1})
	case nSeq:
		if f.idx < len(f.n.children) {
			c := f.n.children[f.idx]
			f.idx++
			return m.push(&fNode{n: c})
		}
		return statDone
	default: // nPar
		switch f.pc {
		case 0:
			t := os.mustCurrent(m)
			// One slab chunk each for the children's control blocks and
			// machines.
			os.Reserve(len(f.n.children))
			os.k.machSlab.reserve(len(f.n.children))
			// Child task control blocks first: each spec's default priority
			// depends on the task count at its own creation moment.
			kids := make([]*core.Task, len(f.n.children))
			for i, c := range f.n.children {
				kids[i] = os.newMappedTask(c.name, len(os.tasks))
			}
			// ParStart: park the parent task and hand the CPU on.
			os.wake(os.Block(os.k.now, t, core.TaskWaitingChildren))
			// The SLDL par: fork child machines into the next delta cycle in
			// declaration order, then block until the last one finishes.
			m.pendingKids = len(f.n.children)
			for i, c := range f.n.children {
				cm := os.k.spawnNext(c.name, &fTaskBody{n: c}, m)
				os.bind(kids[i], cm)
			}
			f.pc = 1
			m.state = mWaitChildren
			return statBlocked
		case 1: // joined: ParEnd
			t := m.task
			if t.State() != core.TaskWaitingChildren {
				panic(fmt.Sprintf("rtc: ParEnd on task %q in state %s", t.Name(), t.State()))
			}
			os.Ready(os.k.now, t)
			f.pc = 2
			return m.decideFrom(statCall)
		default:
			return m.waitDispatched(statDone)
		}
	}
}

// fStmts interprets a compiled statement list (sdl.instance.exec)
// rounds times: once for a leaf, count times for a repeat body.
type fStmts struct {
	name   string // behavior name (marker task field)
	list   []cStmt
	idx    int
	rounds int
}

func (f *fStmts) step(m *machine) status {
	os := m.k.os
	for {
		if f.idx >= len(f.list) {
			if f.rounds--; f.rounds <= 0 {
				return statDone
			}
			f.idx = 0
			continue
		}
		st := &f.list[f.idx]
		f.idx++
		switch st.kind {
		case cDelay:
			return m.callTimeWait(st.dur)
		case cChan:
			return m.callOp(st.op, st.c, st.val)
		case cMarker:
			if os.rec != nil {
				os.rec.Marker(os.k.now, st.label, f.name, st.val)
			}
		case cRepeat:
			if st.count > 0 {
				st.run = fStmts{name: f.name, list: st.body, rounds: st.count}
				return m.push(&st.run)
			}
		}
	}
}

// --- elaboration (Session.init's hierarchical branch) ---

// newMappedTask creates the task control block for a behavior under the
// workload's refinement mapping; order is the task count at creation time
// (refine.Mapping.spec's default: aperiodic, priority 100+order).
func (os *osState) newMappedTask(behavior string, order int) *core.Task {
	if td, ok := os.specs[behavior]; ok {
		typ := core.Aperiodic
		var period Time
		if td.Type == "periodic" {
			typ = core.Periodic
			period = td.Period
		}
		return os.newTask(behavior, typ, period, td.Prio)
	}
	return os.newTask(behavior, core.Aperiodic, 0, 100+order)
}

// compileTree expands the behavior declarations into the elaborated node
// tree rooted at name. Each reference is expanded to its own node, so a
// node never executes under two machines at once.
func (s *Session) compileTree(name string, defs map[string]*BehaviorDef, visiting map[string]bool) (*bNode, error) {
	d, ok := defs[name]
	if !ok {
		return nil, fmt.Errorf("rtc: behavior %q not declared", name)
	}
	if visiting[name] {
		return nil, fmt.Errorf("rtc: behavior %q composes itself", name)
	}
	visiting[name] = true
	defer delete(visiting, name)

	n := &bNode{name: name}
	switch d.Kind {
	case "leaf", "":
		n.kind = nLeaf
		stmts, err := s.compileStmts(d.Stmts)
		if err != nil {
			return nil, err
		}
		n.stmts = stmts
	case "seq", "par":
		if d.Kind == "par" {
			n.kind = nPar
		} else {
			n.kind = nSeq
		}
		for _, c := range d.Children {
			child, err := s.compileTree(c, defs, visiting)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
		}
	default:
		return nil, fmt.Errorf("rtc: behavior %q has unknown kind %q", name, d.Kind)
	}
	return n, nil
}

func (s *Session) compileStmts(ops []Op) ([]cStmt, error) {
	out := make([]cStmt, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case "delay":
			out = append(out, cStmt{kind: cDelay, dur: op.Dur})
		case "send", "recv", "acquire", "release", "signal", "waitsig":
			b := chanOps[op.Kind]
			c := s.channel(op.Ch, b.kind)
			if c == nil {
				return nil, fmt.Errorf("rtc: stmt %q references unknown %s %q", op.Kind, b.kind, op.Ch)
			}
			out = append(out, cStmt{kind: cChan, op: b.op, c: c, val: op.Value})
		case "marker":
			out = append(out, cStmt{kind: cMarker, label: op.Label, val: op.Value})
		case "repeat":
			body, err := s.compileStmts(op.Body)
			if err != nil {
				return nil, err
			}
			out = append(out, cStmt{kind: cRepeat, count: op.Count, body: body})
		default:
			return nil, fmt.Errorf("rtc: unknown stmt kind %q", op.Kind)
		}
	}
	return out, nil
}

// initHier elaborates a hierarchical workload: split stimulus/ISR machine
// pairs per interrupt, then the main task over the compiled tree — the
// spawn order of sdl.Model.build followed by refine.RunArchitecture.
func (s *Session) initHier(w Workload) error {
	os, k := s.os, s.k

	os.specs = make(map[string]TaskDef, len(w.Tasks))
	for _, td := range w.Tasks {
		os.specs[td.Name] = td
	}

	// Interrupts: per line, the ISR daemon first, then its stimulus —
	// arch.PE.AttachISR followed by the builder's stimulus Spawn.
	for _, irq := range w.IRQs {
		sem := s.channel(irq.Sem, "semaphore")
		if sem == nil {
			return fmt.Errorf("rtc: irq %q releases unknown semaphore %q", irq.Name, irq.Sem)
		}
		h := &specHS{}
		h.isr = k.spawn(s.name+"."+irq.Name+".isr", &fISRBody{name: irq.Name, h: h, sem: sem}, true)
		k.spawn(irq.Name+".stim", &fStimBody{h: h, at: irq.At, every: irq.Every, count: irq.Count}, true)
	}

	defs := make(map[string]*BehaviorDef, len(w.Behaviors))
	for i := range w.Behaviors {
		b := &w.Behaviors[i]
		if _, dup := defs[b.Name]; dup {
			return fmt.Errorf("rtc: behavior %q declared twice", b.Name)
		}
		defs[b.Name] = b
	}
	root, err := s.compileTree(w.Top, defs, map[string]bool{})
	if err != nil {
		return err
	}

	// The root becomes the PE's main task (mapping order 0: no tasks yet).
	t := os.newMappedTask(w.Top, 0)
	os.bind(t, k.spawn(w.Top, &fTaskBody{n: root}, false))
	return nil
}
