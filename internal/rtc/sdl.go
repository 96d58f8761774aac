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
// between an interrupt stimulus and its ISR process, carried by a raw
// kernel event with no monitor resource (arch.PE.AttachISR's shape).
type specHS struct {
	channel.HandshakeState
	cond *event
}

// fISRBody is arch.PE.AttachISR's service process on a software PE with
// zero service time and a semaphore-release handler — the shape the SDL
// builder generates for every declared interrupt: wait for the latched
// request, bracket the handler with InterruptEnter/InterruptReturn.
type fISRBody struct {
	os   *osState
	name string // interrupt line name (trace label)
	h    *specHS
	sem  *chanRef
	pc   int
}

func (f *fISRBody) step(m *machine) status {
	os := f.os
	for {
		switch f.pc {
		case 0, 1: // WaitSig on the spec handshake (no task); pc 1 re-checks after a wake
			if f.pc == 1 {
				m.afterWait()
			}
			if _, v := f.h.Step(os.k.now, nil, core.OpWait, 0, f.pc == 1); v.Wait {
				f.pc = 1
				m.wait(f.h.cond)
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
			return m.callDecide(os)
		case 4:
			f.pc = 0
		}
	}
}

// fStimBody is the SDL builder's interrupt stimulus daemon: wait until
// At, then raise the line Count times, Every apart. A raise latches the
// pending handshake and notifies the ISR (IRQ.Raise).
type fStimBody struct {
	k     *kernel
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
			f.h.Step(f.k.now, nil, core.OpSignal, 0, false)
			f.k.flush(f.h.cond)
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

// cStmt is a compiled leaf statement with its channel bound.
type cStmt struct {
	kind  stmtKind
	dur   Time
	val   int64
	label string
	op    core.ChanOp
	c     *chanRef
	body  []cStmt
	count int
}

// --- execution frames ---

// hier is the hierarchical-elaboration state the behavior frames share:
// the refinement mapping for par-forked child tasks.
type hier struct {
	os    *osState
	specs map[string]TaskDef // behavior → mapping
}

// fTaskBody runs one task over a behavior subtree: activate, execute the
// subtree, terminate — the body RunArchitecture gives the main process
// and every par child.
type fTaskBody struct {
	h  *hier
	os *osState
	t  *core.Task
	n  *bNode
	pc int
}

func (f *fTaskBody) step(m *machine) status {
	switch f.pc {
	case 0:
		f.pc = 1
		return m.callActivate(f.os)
	case 1:
		f.pc = 2
		return m.push(&fNode{h: f.h, os: f.os, t: f.t, n: f.n})
	default:
		f.os.taskTerminate(m)
		return statDone
	}
}

// fNode executes one behavior node under the task t: leaves run their
// statement list, seq nodes their children in order, and par nodes fork
// one task+machine per child and join (refine.runRTOS's kindPar bracket:
// TaskCreate children, ParStart, fork, join, ParEnd).
type fNode struct {
	h   *hier
	os  *osState
	t   *core.Task
	n   *bNode
	idx int
	pc  int
}

func (f *fNode) step(m *machine) status {
	os := f.os
	switch f.n.kind {
	case nLeaf:
		return m.tailcall(&fStmts{os: os, name: f.n.name, list: f.n.stmts})
	case nSeq:
		if f.idx < len(f.n.children) {
			c := f.n.children[f.idx]
			f.idx++
			return m.push(&fNode{h: f.h, os: os, t: f.t, n: c})
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
				kids[i] = f.h.newMappedTask(c.name, len(os.tasks))
			}
			// ParStart: park the parent task and hand the CPU on.
			os.wake(m, os.Block(os.k.now, t, core.TaskWaitingChildren))
			// The SLDL par: fork child machines into the next delta cycle in
			// declaration order, then block until the last one finishes.
			m.pendingKids = len(f.n.children)
			for i, c := range f.n.children {
				cm := os.k.spawnNext(c.name, &fTaskBody{h: f.h, os: os, t: kids[i], n: c}, m)
				os.bind(kids[i], cm)
			}
			f.pc = 1
			m.state = mWaitChildren
			return statBlocked
		case 1: // joined: ParEnd
			t := f.t
			if t.State() != core.TaskWaitingChildren {
				panic(fmt.Sprintf("rtc: ParEnd on task %q in state %s", t.Name(), t.State()))
			}
			os.Ready(os.k.now, t)
			f.pc = 2
			return m.callDecide(os)
		default:
			return m.tailWaitDispatched(os)
		}
	}
}

// fStmts interprets a compiled statement list (sdl.instance.exec).
type fStmts struct {
	os   *osState
	name string // behavior name (marker task field)
	list []cStmt
	idx  int
}

func (f *fStmts) step(m *machine) status {
	os := f.os
	for {
		if f.idx >= len(f.list) {
			return statDone
		}
		st := &f.list[f.idx]
		f.idx++
		switch st.kind {
		case cDelay:
			return m.callTimeWait(st.dur, os)
		case cChan:
			return m.callOp(st.op, st.c, st.val)
		case cMarker:
			if os.rec != nil {
				os.rec.Marker(os.k.now, st.label, f.name, st.val)
			}
		case cRepeat:
			if st.count > 0 {
				return m.push(&fRepeat{os: os, name: f.name, body: st.body, n: st.count})
			}
		}
	}
}

// fRepeat runs a repeat body n times, one fStmts round per iteration.
type fRepeat struct {
	os   *osState
	name string
	body []cStmt
	n, i int
	sub  fStmts
}

func (f *fRepeat) step(m *machine) status {
	if f.i >= f.n {
		return statDone
	}
	f.i++
	// The sub-frame is reused across iterations: it has left the stack
	// before this frame steps again.
	f.sub = fStmts{os: f.os, name: f.name, list: f.body}
	return m.push(&f.sub)
}

// --- elaboration (Session.init's hierarchical branch) ---

// newMappedTask creates the task control block for a behavior under the
// workload's refinement mapping; order is the task count at creation time
// (refine.Mapping.spec's default: aperiodic, priority 100+order).
func (h *hier) newMappedTask(behavior string, order int) *core.Task {
	if td, ok := h.specs[behavior]; ok {
		typ := core.Aperiodic
		var period Time
		if td.Type == "periodic" {
			typ = core.Periodic
			period = td.Period
		}
		return h.os.newTask(behavior, typ, period, td.Prio)
	}
	return h.os.newTask(behavior, core.Aperiodic, 0, 100+order)
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

	h := &hier{os: os, specs: make(map[string]TaskDef, len(w.Tasks))}
	for _, td := range w.Tasks {
		h.specs[td.Name] = td
	}

	// Interrupts: per line, the ISR daemon first, then its stimulus —
	// arch.PE.AttachISR followed by the builder's stimulus Spawn.
	for _, irq := range w.IRQs {
		sem := s.channel(irq.Sem, "semaphore")
		if sem == nil {
			return fmt.Errorf("rtc: irq %q releases unknown semaphore %q", irq.Name, irq.Sem)
		}
		h := &specHS{cond: new(event)}
		k.spawn(s.name+"."+irq.Name+".isr", &fISRBody{os: os, name: irq.Name, h: h, sem: sem}, true)
		k.spawn(irq.Name+".stim", &fStimBody{k: k, h: h, at: irq.At, every: irq.Every, count: irq.Count}, true)
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
	t := h.newMappedTask(w.Top, 0)
	os.bind(t, k.spawn(w.Top, &fTaskBody{h: h, os: os, t: t, n: root}, false))
	return nil
}
