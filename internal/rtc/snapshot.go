package rtc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

// Checkpoint is a captured Session: the complete scheduler state —
// machine stacks, ready/wait queues, pending timers, channel buffers,
// wait-for-graph edges, accounting, and the trace position — in a
// deterministic byte form. Two sessions that reached the same state
// produce byte-identical checkpoints, so State doubles as a state digest.
//
// A checkpoint restores into any workload with the same *structure*
// (tasks, channels, IRQs, personality, time model, watchdog, trace flag);
// Policy, Quantum and Horizon may differ — that is the design-space
// fork: run the shared prefix once, snapshot at t=T, and restore under
// each candidate policy. Priorities are state, so a fork to "rm" keeps
// the prefix's priorities rather than re-running the rate-monotonic
// assignment (which happens only at session start).
type Checkpoint struct {
	At        Time   // capture instant (the session's Now)
	Structure string // hash binding the checkpoint to its workload structure
	State     []byte // canonical state encoding
}

// snapVersion guards the State encoding; bump on any format change.
const snapVersion = "rtcsnap/1"

// Snapshot captures the session's complete state. The session must be
// quiescent — paused at a RunUntil horizon with no failure — because a
// mid-delta-cycle capture would have machines in flight whose kernel
// queue positions are not part of the resumable state. Snapshot has no
// side effects; the session can keep running afterwards.
func (s *Session) Snapshot() (*Checkpoint, error) {
	k := s.k
	if s.w.Top != "" {
		// Hierarchical (SDL) sessions fork tasks and machines at runtime
		// and park ISRs on spec-level events outside the task event table;
		// their state is not yet part of the rtcsnap encoding.
		return nil, fmt.Errorf("rtc: snapshot does not support hierarchical (SDL) workloads")
	}
	if k.stopped || s.err != nil {
		return nil, fmt.Errorf("rtc: cannot snapshot a stopped run (err: %v)", s.err)
	}
	if k.readyAt < len(k.ready) || len(k.next) > 0 {
		return nil, fmt.Errorf("rtc: cannot snapshot mid-delta-cycle; pause at a RunUntil horizon first")
	}
	machIx := make(map[*machine]int, len(k.machines))
	for i, m := range k.machines {
		machIx[m] = i
	}
	var e snapEncoder
	e.line("%s", snapVersion)
	e.line("struct %s", s.structureHash())
	e.line("k now=%d delta=%d timerseq=%d", int64(k.now), k.delta, k.timerSeq)

	os := s.os
	e.line("os cur=%d last=%d seq=%d fseq=%d started=%t startedAt=%d idleSince=%d idleValid=%t delayStart=%d delayValid=%t progress=%d",
		taskID(os.current), taskID(os.lastRun), os.seq, os.frontSeq, os.started,
		int64(os.startedAt), int64(os.idleSince), os.idleValid, int64(os.delayStart), os.delayValid, os.progress)
	st := os.stats
	e.line("stats disp=%d cs=%d pre=%d irqs=%d idle=%d busy=%d ovh=%d",
		st.Dispatches, st.ContextSwitches, st.Preemptions, st.IRQs,
		int64(st.IdleTime), int64(st.BusyTime), int64(st.OverheadTime))
	ready := make([]int, len(os.ready))
	for i, t := range os.ready {
		ready[i] = t.id
	}
	e.ints("osready", ready)

	// Kernel events exist two per task, in task order: dispatch = 2*id,
	// preempt = 2*id + 1 (newTask creation order). Encode each event's
	// waiter list — waiter order is wake order, so it is state.
	e.line("events %d", 2*len(os.tasks))
	for _, t := range os.tasks {
		for _, ev := range [2]*event{&t.dispatch, &t.preempt} {
			ws := make([]int, len(ev.waiters))
			for i, w := range ev.waiters {
				ws[i] = machIx[w]
			}
			e.ints("e", ws)
		}
	}

	// OS events exist one per generic-personality channel, in channel
	// declaration order; their FIFO queues are task ids.
	osEvents := s.osEventList()
	e.line("osevents %d", len(osEvents))
	for _, oe := range osEvents {
		q := make([]int, len(oe.queue))
		for i, t := range oe.queue {
			q[i] = t.id
		}
		e.ints("oe", q)
	}

	resIx := make(map[*resource]int, len(os.monitor.resources))
	for i, r := range os.monitor.resources {
		resIx[r] = i
	}
	e.line("tasks %d", len(os.tasks))
	for _, t := range os.tasks {
		wres := -1
		if t.waitingRes != nil {
			wres = resIx[t.waitingRes]
		}
		e.line("t state=%d prio=%d rseq=%d rel=%d dl=%d slice=%d lwd=%d cpu=%d act=%d miss=%d msg=%d mach=%d wres=%d",
			int(t.state), t.prio, t.readySeq, int64(t.release), int64(t.deadline), int64(t.sliceUsed),
			int64(t.lastWorkDone), int64(t.cpuTime), t.activations, t.missed, t.msg, machOrNeg(machIx, t.mach), wres)
		e.line("tsite %q", t.blockSite)
	}

	// Task body state is carried even when a machine has finished (empty
	// stack) — Finish still reads per-task outcomes such as MaxResp off
	// the body frame after the machine is done.
	e.line("bodies %d", len(s.bodies))
	for _, f := range s.bodies {
		switch fr := f.(type) {
		case *fPeriodicBody:
			e.line("b pb %d %d %d %d %d", fr.c, fr.segIx, int64(fr.rel), int64(fr.resp), fr.pc)
		case *fAperiodicBody:
			e.line("b ab %d %d %d", fr.rep, fr.opIx, fr.pc)
		default:
			return nil, fmt.Errorf("rtc: unknown body frame %T", f)
		}
	}

	e.line("resources %d", len(os.monitor.resources))
	for _, r := range os.monitor.resources {
		pairs := make([]int, 0, 2*len(r.holders))
		for _, h := range r.holders {
			pairs = append(pairs, h.t.id, h.n)
		}
		e.ints("r", pairs)
	}

	qs, ss := s.queueList(), s.semList()
	e.line("chans %d", len(s.w.Channels))
	for _, obj := range s.chanObjects() {
		if err := encodeChannel(&e, obj); err != nil {
			return nil, err
		}
	}

	e.line("machines %d", len(k.machines))
	for i, m := range k.machines {
		e.line("m %d state=%d timedout=%t", i, int(m.state), m.timedOut)
		evs := make([]int, len(m.waitEvents))
		for j, ev := range m.waitEvents {
			id, err := s.eventID(ev)
			if err != nil {
				return nil, err
			}
			evs[j] = id
		}
		e.ints("mw", evs)
		e.line("stk %d", len(m.stack))
		for _, f := range m.stack {
			if err := s.encodeFrame(&e, f, qs, ss); err != nil {
				return nil, err
			}
		}
	}

	var timers []*timerEntry
	k.wheel.Each(func(te *timerEntry) { timers = append(timers, te) })
	sort.Slice(timers, func(i, j int) bool {
		if timers[i].at != timers[j].at {
			return timers[i].at < timers[j].at
		}
		return timers[i].seq < timers[j].seq
	})
	e.line("timers %d", len(timers))
	for _, te := range timers {
		if te.m == nil {
			return nil, fmt.Errorf("rtc: snapshot found an event timer; the engine only arms machine timers")
		}
		e.line("ti at=%d seq=%d mach=%d", int64(te.at), te.seq, machIx[te.m])
	}

	e.line("recs %d", len(os.recs))
	for _, r := range os.recs {
		e.line("rec %d %d %d %q %q %q %q", int64(r.At), int(r.Kind), r.Arg, r.Task, r.From, r.To, r.Label)
	}

	return &Checkpoint{At: k.now, Structure: s.structureHash(), State: e.b.Bytes()}, nil
}

// Restore builds a fresh session for w and applies the checkpoint onto
// it, resuming at cp.At. The workload must be structurally identical to
// the one snapshotted; Policy, Quantum and Horizon may differ (the
// checkpoint-fork knobs). The restored session continues with RunUntil.
func Restore(w Workload, cp *Checkpoint) (*Session, error) {
	s, err := NewSession(w)
	if err != nil {
		return nil, err
	}
	if h := s.structureHash(); h != cp.Structure {
		return nil, fmt.Errorf("rtc: checkpoint structure mismatch (snapshot %.12s..., workload %.12s...): only Policy, Quantum and Horizon may change across a fork", cp.Structure, h)
	}
	if err := s.apply(cp); err != nil {
		return nil, fmt.Errorf("rtc: restore: %w", err)
	}
	return s, nil
}

// apply decodes cp.State into the freshly built session.
func (s *Session) apply(cp *Checkpoint) error {
	d := &snapDecoder{lines: strings.Split(string(cp.State), "\n")}
	if err := d.expect(snapVersion); err != nil {
		return err
	}
	var structHash string
	if err := d.scan("struct %s", &structHash); err != nil {
		return err
	}
	k, os := s.k, s.os

	// Discard the build's time-zero spawn enqueues: the checkpoint's
	// machines already ran their activation prefix.
	for i := range k.ready {
		k.ready[i] = nil
	}
	k.ready, k.readyAt = k.ready[:0], 0
	k.next = k.next[:0]

	var now, delta, tseq int64
	if err := d.scan("k now=%d delta=%d timerseq=%d", &now, &delta, &tseq); err != nil {
		return err
	}
	k.now, k.delta, k.timerSeq = Time(now), uint64(delta), int(tseq)
	k.nextDueOK = false

	var cur, last, seq, fseq, act, wres int
	var started, idleValid, delayValid bool
	var startedAt, idleSince, delayStart int64
	var progress uint64
	if err := d.scan("os cur=%d last=%d seq=%d fseq=%d started=%t startedAt=%d idleSince=%d idleValid=%t delayStart=%d delayValid=%t progress=%d",
		&cur, &last, &seq, &fseq, &started, &startedAt, &idleSince, &idleValid, &delayStart, &delayValid, &progress); err != nil {
		return err
	}
	os.current, os.lastRun = s.taskOrNil(cur), s.taskOrNil(last)
	os.seq, os.frontSeq = seq, fseq
	os.started, os.startedAt = started, Time(startedAt)
	os.idleSince, os.idleValid = Time(idleSince), idleValid
	os.delayStart, os.delayValid = Time(delayStart), delayValid
	os.progress = progress

	var disp, cs, pre, irqs uint64
	var idle, busy, ovh int64
	if err := d.scan("stats disp=%d cs=%d pre=%d irqs=%d idle=%d busy=%d ovh=%d",
		&disp, &cs, &pre, &irqs, &idle, &busy, &ovh); err != nil {
		return err
	}
	os.stats = core.Stats{Dispatches: disp, ContextSwitches: cs, Preemptions: pre, IRQs: irqs,
		IdleTime: Time(idle), BusyTime: Time(busy), OverheadTime: Time(ovh)}

	ready, err := d.ints("osready")
	if err != nil {
		return err
	}
	os.ready = os.ready[:0]
	for _, id := range ready {
		t, err := s.taskByID(id)
		if err != nil {
			return err
		}
		os.ready = append(os.ready, t)
	}

	var nEvents int
	if err := d.scan("events %d", &nEvents); err != nil {
		return err
	}
	if nEvents != 2*len(os.tasks) {
		return fmt.Errorf("snapshot has %d kernel events, workload has %d", nEvents, 2*len(os.tasks))
	}
	for _, t := range os.tasks {
		for _, ev := range [2]*event{&t.dispatch, &t.preempt} {
			ids, err := d.ints("e")
			if err != nil {
				return err
			}
			ev.waiters = ev.waiters[:0]
			for _, mi := range ids {
				m, err := s.machineByIndex(mi)
				if err != nil {
					return err
				}
				ev.waiters = append(ev.waiters, m)
			}
		}
	}

	osEvents := s.osEventList()
	var nOSEvents int
	if err := d.scan("osevents %d", &nOSEvents); err != nil {
		return err
	}
	if nOSEvents != len(osEvents) {
		return fmt.Errorf("snapshot has %d os events, workload has %d", nOSEvents, len(osEvents))
	}
	for _, oe := range osEvents {
		ids, err := d.ints("oe")
		if err != nil {
			return err
		}
		oe.queue = oe.queue[:0]
		for _, id := range ids {
			t, err := s.taskByID(id)
			if err != nil {
				return err
			}
			oe.queue = append(oe.queue, t)
		}
	}

	var nTasks int
	if err := d.scan("tasks %d", &nTasks); err != nil {
		return err
	}
	if nTasks != len(os.tasks) {
		return fmt.Errorf("snapshot has %d tasks, workload has %d", nTasks, len(os.tasks))
	}
	for _, t := range os.tasks {
		var state, prio, rseq, miss, mach int
		var rel, dl, slice, lwd, cpu, msg int64
		if err := d.scan("t state=%d prio=%d rseq=%d rel=%d dl=%d slice=%d lwd=%d cpu=%d act=%d miss=%d msg=%d mach=%d wres=%d",
			&state, &prio, &rseq, &rel, &dl, &slice, &lwd, &cpu, &act, &miss, &msg, &mach, &wres); err != nil {
			return err
		}
		t.state, t.prio, t.readySeq = core.TaskState(state), prio, rseq
		t.release, t.deadline, t.sliceUsed = Time(rel), Time(dl), Time(slice)
		t.lastWorkDone, t.cpuTime = Time(lwd), Time(cpu)
		t.activations, t.missed, t.msg = act, miss, msg
		if mach >= 0 {
			m, err := s.machineByIndex(mach)
			if err != nil {
				return err
			}
			t.mach = m
		} else {
			t.mach = nil
		}
		if wres >= 0 {
			if wres >= len(os.monitor.resources) {
				return fmt.Errorf("task %s waits on resource %d of %d", t.name, wres, len(os.monitor.resources))
			}
			t.waitingRes = os.monitor.resources[wres]
		} else {
			t.waitingRes = nil
		}
		if err := d.scan("tsite %q", &t.blockSite); err != nil {
			return err
		}
	}

	var nBodies int
	if err := d.scan("bodies %d", &nBodies); err != nil {
		return err
	}
	if nBodies != len(s.bodies) {
		return fmt.Errorf("snapshot has %d task bodies, workload has %d", nBodies, len(s.bodies))
	}
	for _, f := range s.bodies {
		ln, err := d.next()
		if err != nil {
			return err
		}
		switch fr := f.(type) {
		case *fPeriodicBody:
			var rel, resp int64
			if _, err := fmt.Sscanf(ln, "b pb %d %d %d %d %d", &fr.c, &fr.segIx, &rel, &resp, &fr.pc); err != nil {
				return fmt.Errorf("bad body line %q: %v", ln, err)
			}
			fr.rel, fr.resp = Time(rel), Time(resp)
		case *fAperiodicBody:
			if _, err := fmt.Sscanf(ln, "b ab %d %d %d", &fr.rep, &fr.opIx, &fr.pc); err != nil {
				return fmt.Errorf("bad body line %q: %v", ln, err)
			}
		default:
			return fmt.Errorf("unknown body frame %T", f)
		}
	}

	var nRes int
	if err := d.scan("resources %d", &nRes); err != nil {
		return err
	}
	if nRes != len(os.monitor.resources) {
		return fmt.Errorf("snapshot has %d resources, workload has %d", nRes, len(os.monitor.resources))
	}
	for _, r := range os.monitor.resources {
		pairs, err := d.ints("r")
		if err != nil {
			return err
		}
		if len(pairs)%2 != 0 {
			return fmt.Errorf("resource %s holder list has odd length", r.name)
		}
		r.holders = r.holders[:0]
		for i := 0; i < len(pairs); i += 2 {
			t, err := s.taskByID(pairs[i])
			if err != nil {
				return err
			}
			r.holders = append(r.holders, holderCount{t: t, n: pairs[i+1]})
		}
	}

	var nChans int
	if err := d.scan("chans %d", &nChans); err != nil {
		return err
	}
	if nChans != len(s.w.Channels) {
		return fmt.Errorf("snapshot has %d channels, workload has %d", nChans, len(s.w.Channels))
	}
	for _, obj := range s.chanObjects() {
		if err := s.decodeChannel(d, obj); err != nil {
			return err
		}
	}

	var nMach int
	if err := d.scan("machines %d", &nMach); err != nil {
		return err
	}
	if nMach != len(k.machines) {
		return fmt.Errorf("snapshot has %d machines, workload has %d", nMach, len(k.machines))
	}
	qs, ss := s.queueList(), s.semList()
	for i, m := range k.machines {
		var ix, state int
		var timedOut bool
		if err := d.scan("m %d state=%d timedout=%t", &ix, &state, &timedOut); err != nil {
			return err
		}
		if ix != i {
			return fmt.Errorf("machine record %d out of order (got %d)", i, ix)
		}
		m.state, m.timedOut = mState(state), timedOut
		m.wokenBy = nil
		evs, err := d.ints("mw")
		if err != nil {
			return err
		}
		m.waitEvents = m.waitEvents[:0]
		for _, id := range evs {
			ev, err := s.eventByID(id)
			if err != nil {
				return err
			}
			m.waitEvents = append(m.waitEvents, ev)
		}
		var depth int
		if err := d.scan("stk %d", &depth); err != nil {
			return err
		}
		body := m.stack[0] // the spawn body; frame 0 of any live stack
		for j := range m.stack {
			m.stack[j] = nil
		}
		m.stack = m.stack[:0]
		for j := 0; j < depth; j++ {
			f, err := s.decodeFrame(d, m, body, j == 0, qs, ss)
			if err != nil {
				return err
			}
			m.stack = append(m.stack, f)
		}
	}

	var nTimers int
	if err := d.scan("timers %d", &nTimers); err != nil {
		return err
	}
	for j := 0; j < nTimers; j++ {
		var at int64
		var tsq, mach int
		if err := d.scan("ti at=%d seq=%d mach=%d", &at, &tsq, &mach); err != nil {
			return err
		}
		m, err := s.machineByIndex(mach)
		if err != nil {
			return err
		}
		entry := k.newTimer()
		entry.at, entry.seq, entry.m = Time(at), tsq, m
		k.wheel.Push(entry)
		m.timer = entry
	}

	var nRecs int
	if err := d.scan("recs %d", &nRecs); err != nil {
		return err
	}
	os.recs = os.recs[:0]
	for j := 0; j < nRecs; j++ {
		var at int64
		var kind int
		var arg int64
		var task, from, to, label string
		if err := d.scan("rec %d %d %d %q %q %q %q", &at, &kind, &arg, &task, &from, &to, &label); err != nil {
			return err
		}
		os.recs = append(os.recs, trace.Record{At: Time(at), Kind: trace.Kind(kind), Arg: arg,
			Task: task, From: from, To: to, Label: label})
	}

	k.active = 0
	for _, m := range k.machines {
		if m.state != mDone {
			k.active++
		}
	}
	return nil
}

// structureHash fingerprints everything a checkpoint depends on except
// the fork knobs (Policy, Quantum, Horizon): name, personality, time
// model, tracing, watchdog, and the full task/channel/IRQ declarations.
func (s *Session) structureHash() string {
	var b bytes.Buffer
	w := s.w
	fmt.Fprintf(&b, "rtcstruct/1 name=%q pers=%q tmodel=%d trace=%t wd=%d\n",
		s.name, s.pers, int(w.TimeModel), w.Trace, int64(w.WatchdogWindow))
	for _, td := range w.Tasks {
		fmt.Fprintf(&b, "task %q %q prio=%d period=%d cycles=%d start=%d repeat=%d segs=%d",
			td.Name, td.Type, td.Prio, int64(td.Period), td.Cycles, int64(td.Start), td.Repeat, len(td.Segments))
		for _, seg := range td.Segments {
			fmt.Fprintf(&b, " %d", int64(seg))
		}
		b.WriteByte('\n')
		for _, op := range td.Ops {
			fmt.Fprintf(&b, "op %q %d %q\n", op.Kind, int64(op.Dur), op.Ch)
		}
	}
	for _, c := range w.Channels {
		fmt.Fprintf(&b, "chan %q %q %d\n", c.Name, c.Kind, c.Arg)
	}
	for _, irq := range w.IRQs {
		fmt.Fprintf(&b, "irq %q %q at=%d every=%d count=%d\n", irq.Name, irq.Sem, int64(irq.At), int64(irq.Every), irq.Count)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// --- lookup helpers ---

func taskID(t *task) int {
	if t == nil {
		return -1
	}
	return t.id
}

func machOrNeg(ix map[*machine]int, m *machine) int {
	if m == nil {
		return -1
	}
	return ix[m]
}

func (s *Session) taskOrNil(id int) *task {
	if id < 0 {
		return nil
	}
	return s.os.tasks[id]
}

func (s *Session) taskByID(id int) (*task, error) {
	if id < 0 || id >= len(s.os.tasks) {
		return nil, fmt.Errorf("task id %d out of range (%d tasks)", id, len(s.os.tasks))
	}
	return s.os.tasks[id], nil
}

func (s *Session) machineByIndex(i int) (*machine, error) {
	if i < 0 || i >= len(s.k.machines) {
		return nil, fmt.Errorf("machine index %d out of range (%d machines)", i, len(s.k.machines))
	}
	return s.k.machines[i], nil
}

// eventID numbers the kernel events without a registry: task id*2 for
// the dispatch event, id*2+1 for the preempt event (newTask creation
// order; the events live in the task control block).
func (s *Session) eventID(ev *event) (int, error) {
	for _, t := range s.os.tasks {
		if ev == &t.dispatch {
			return 2 * t.id, nil
		}
		if ev == &t.preempt {
			return 2*t.id + 1, nil
		}
	}
	return 0, fmt.Errorf("event %q is not a task dispatch/preempt event", ev.name)
}

func (s *Session) eventByID(id int) (*event, error) {
	t, err := s.taskByID(id / 2)
	if err != nil {
		return nil, err
	}
	if id%2 == 0 {
		return &t.dispatch, nil
	}
	return &t.preempt, nil
}

// osEventList enumerates OS-level events in creation order: one condition
// variable per generic-personality channel, in declaration order (the
// itron/osek channels use task wait queues instead).
func (s *Session) osEventList() []*osEvent {
	var out []*osEvent
	for _, c := range s.w.Channels {
		switch c.Kind {
		case "queue":
			if q, ok := s.queues[c.Name].(*genQueue); ok {
				out = append(out, q.cond)
			}
		case "semaphore":
			if sm, ok := s.sems[c.Name].(*genSem); ok {
				out = append(out, sm.cond)
			}
		}
	}
	return out
}

func (s *Session) osEventIndex(oe *osEvent) (int, error) {
	for i, x := range s.osEventList() {
		if x == oe {
			return i, nil
		}
	}
	return 0, fmt.Errorf("os event %q not found in channel declaration order", oe.name)
}

// chanObjects returns the channel objects in declaration order.
func (s *Session) chanObjects() []interface{} {
	out := make([]interface{}, 0, len(s.w.Channels))
	for _, c := range s.w.Channels {
		if c.Kind == "queue" {
			out = append(out, s.queues[c.Name])
		} else {
			out = append(out, s.sems[c.Name])
		}
	}
	return out
}

// queueList / semList index the queue-kind and semaphore-kind channels in
// declaration order, the id space opFrame references use.
func (s *Session) queueList() []rQueue {
	var out []rQueue
	for _, c := range s.w.Channels {
		if c.Kind == "queue" {
			out = append(out, s.queues[c.Name])
		}
	}
	return out
}

func (s *Session) semList() []rSem {
	var out []rSem
	for _, c := range s.w.Channels {
		if c.Kind == "semaphore" {
			out = append(out, s.sems[c.Name])
		}
	}
	return out
}

// --- channel state ---

func encodeChannel(e *snapEncoder, obj interface{}) error {
	switch c := obj.(type) {
	case *genQueue:
		e.ints64("cq", c.buf)
	case *genSem:
		e.line("cs %d", c.count)
	case *itronSem:
		e.line("is %d", c.count)
		e.ints("isw", taskIDs(c.wq))
	case *itronMailbox:
		e.ints64("imm", c.msgs)
		e.ints("imw", taskIDs(c.wq))
	case *osekSem:
		e.line("os %d", c.count)
		e.ints("osw", taskIDs(c.wq))
	case *osekQueue:
		e.ints64("oq", c.buf)
		e.ints("oqs", taskIDs(c.sendQ))
		e.ints("oqr", taskIDs(c.recvQ))
	default:
		return fmt.Errorf("rtc: unknown channel object %T", obj)
	}
	return nil
}

func (s *Session) decodeChannel(d *snapDecoder, obj interface{}) error {
	switch c := obj.(type) {
	case *genQueue:
		buf, err := d.ints64("cq")
		if err != nil {
			return err
		}
		c.buf = buf
	case *genSem:
		return d.scan("cs %d", &c.count)
	case *itronSem:
		if err := d.scan("is %d", &c.count); err != nil {
			return err
		}
		return s.readTaskList(d, "isw", &c.wq)
	case *itronMailbox:
		msgs, err := d.ints64("imm")
		if err != nil {
			return err
		}
		c.msgs = msgs
		return s.readTaskList(d, "imw", &c.wq)
	case *osekSem:
		if err := d.scan("os %d", &c.count); err != nil {
			return err
		}
		return s.readTaskList(d, "osw", &c.wq)
	case *osekQueue:
		buf, err := d.ints64("oq")
		if err != nil {
			return err
		}
		c.buf = buf
		if err := s.readTaskList(d, "oqs", &c.sendQ); err != nil {
			return err
		}
		return s.readTaskList(d, "oqr", &c.recvQ)
	default:
		return fmt.Errorf("unknown channel object %T", obj)
	}
	return nil
}

func taskIDs(ts []*task) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.id
	}
	return out
}

func (s *Session) readTaskList(d *snapDecoder, tag string, dst *[]*task) error {
	ids, err := d.ints(tag)
	if err != nil {
		return err
	}
	out := (*dst)[:0]
	for _, id := range ids {
		t, err := s.taskByID(id)
		if err != nil {
			return err
		}
		out = append(out, t)
	}
	*dst = out
	return nil
}

// --- frame codec ---

// encodeFrame writes one stack frame: its type tag plus every mutable
// field. Structural fields (bound tasks of body frames, segment lists,
// op lists) are rebuilt by the session constructor and omitted.
func (s *Session) encodeFrame(e *snapEncoder, f frame, qs []rQueue, ss []rSem) error {
	switch fr := f.(type) {
	case *fPeriodicBody:
		e.line("f pb %d %d %d %d %d", fr.c, fr.segIx, int64(fr.rel), int64(fr.resp), fr.pc)
	case *fAperiodicBody:
		e.line("f ab %d %d %d", fr.rep, fr.opIx, fr.pc)
	case *fIRQBody:
		e.line("f irq %d %d", fr.i, fr.pc)
	case *fWatchdogBody:
		e.line("f wd %d %t %d", fr.last, fr.starving, fr.pc)
	case *fActivate:
		e.line("f act %d %d", taskID(fr.t), fr.pc)
	case *fEndCycle:
		e.line("f end %d %d %d", taskID(fr.t), int64(fr.next), fr.pc)
	case *fTimeWait:
		e.line("f tw %d %d %d %d", int64(fr.d), int64(fr.remaining), int64(fr.start), fr.pc)
	case *fWaitDispatched:
		e.line("f wdis %d %d", taskID(fr.t), fr.pc)
	case *fYieldCPU:
		e.line("f yld %d", taskID(fr.t))
	case *fDecideFrom:
		e.line("f dec")
	case *fEventWait:
		ix, err := s.osEventIndex(fr.e)
		if err != nil {
			return err
		}
		e.line("f ew %d", ix)
	case *fEventNotify:
		ix, err := s.osEventIndex(fr.e)
		if err != nil {
			return err
		}
		e.line("f en %d", ix)
	case *fSuspend:
		e.line("f sus %d %q", int(fr.ws), fr.site)
	case *fResume:
		e.line("f res %d", taskID(fr.t))
	case *opFrame:
		ref := "-"
		if fr.q != nil {
			for i, q := range qs {
				if q == fr.q {
					ref = fmt.Sprintf("q%d", i)
					break
				}
			}
		} else if fr.s != nil {
			for i, sm := range ss {
				if sm == fr.s {
					ref = fmt.Sprintf("s%d", i)
					break
				}
			}
		}
		if ref == "-" {
			return fmt.Errorf("rtc: op frame references an unknown channel")
		}
		e.line("f op %d %s %d %d %d %d", int(fr.kind), ref, fr.v, fr.ret, taskID(fr.t), fr.pc)
	default:
		return fmt.Errorf("rtc: unknown frame type %T", f)
	}
	return nil
}

// decodeFrame reads one frame line back onto machine m. Frame 0 of a
// stack must be the machine's spawn body (taken from the fresh build);
// service frames land in the machine's preallocated slots, exactly as
// the call helpers place them.
func (s *Session) decodeFrame(d *snapDecoder, m *machine, body frame, isBody bool, qs []rQueue, ss []rSem) (frame, error) {
	ln, err := d.next()
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(ln)
	if len(fields) < 2 || fields[0] != "f" {
		return nil, fmt.Errorf("bad frame line %q", ln)
	}
	tag := fields[1]
	os := s.os
	bodyTag := map[string]bool{"pb": true, "ab": true, "irq": true, "wd": true}[tag]
	if bodyTag != isBody {
		return nil, fmt.Errorf("frame %q at stack position mismatch (body=%t)", tag, isBody)
	}
	switch tag {
	case "pb":
		fr, ok := body.(*fPeriodicBody)
		if !ok {
			return nil, fmt.Errorf("snapshot frame pb but machine body is %T", body)
		}
		var rel, resp int64
		if _, err := fmt.Sscanf(ln, "f pb %d %d %d %d %d", &fr.c, &fr.segIx, &rel, &resp, &fr.pc); err != nil {
			return nil, fmt.Errorf("bad pb frame %q: %v", ln, err)
		}
		fr.rel, fr.resp = Time(rel), Time(resp)
		return fr, nil
	case "ab":
		fr, ok := body.(*fAperiodicBody)
		if !ok {
			return nil, fmt.Errorf("snapshot frame ab but machine body is %T", body)
		}
		if _, err := fmt.Sscanf(ln, "f ab %d %d %d", &fr.rep, &fr.opIx, &fr.pc); err != nil {
			return nil, fmt.Errorf("bad ab frame %q: %v", ln, err)
		}
		return fr, nil
	case "irq":
		fr, ok := body.(*fIRQBody)
		if !ok {
			return nil, fmt.Errorf("snapshot frame irq but machine body is %T", body)
		}
		if _, err := fmt.Sscanf(ln, "f irq %d %d", &fr.i, &fr.pc); err != nil {
			return nil, fmt.Errorf("bad irq frame %q: %v", ln, err)
		}
		return fr, nil
	case "wd":
		fr, ok := body.(*fWatchdogBody)
		if !ok {
			return nil, fmt.Errorf("snapshot frame wd but machine body is %T", body)
		}
		if _, err := fmt.Sscanf(ln, "f wd %d %t %d", &fr.last, &fr.starving, &fr.pc); err != nil {
			return nil, fmt.Errorf("bad wd frame %q: %v", ln, err)
		}
		return fr, nil
	case "act":
		var tid, pc int
		if _, err := fmt.Sscanf(ln, "f act %d %d", &tid, &pc); err != nil {
			return nil, fmt.Errorf("bad act frame %q: %v", ln, err)
		}
		m.fAct = fActivate{os: os, t: s.taskOrNil(tid), pc: pc}
		return &m.fAct, nil
	case "end":
		var tid, pc int
		var next int64
		if _, err := fmt.Sscanf(ln, "f end %d %d %d", &tid, &next, &pc); err != nil {
			return nil, fmt.Errorf("bad end frame %q: %v", ln, err)
		}
		m.fEnd = fEndCycle{os: os, t: s.taskOrNil(tid), next: Time(next), pc: pc}
		return &m.fEnd, nil
	case "tw":
		var dur, remaining, start int64
		var pc int
		if _, err := fmt.Sscanf(ln, "f tw %d %d %d %d", &dur, &remaining, &start, &pc); err != nil {
			return nil, fmt.Errorf("bad tw frame %q: %v", ln, err)
		}
		m.fTW = fTimeWait{os: os, d: Time(dur), remaining: Time(remaining), start: Time(start), pc: pc}
		return &m.fTW, nil
	case "wdis":
		var tid, pc int
		if _, err := fmt.Sscanf(ln, "f wdis %d %d", &tid, &pc); err != nil {
			return nil, fmt.Errorf("bad wdis frame %q: %v", ln, err)
		}
		m.fWD = fWaitDispatched{os: os, t: s.taskOrNil(tid), pc: pc}
		return &m.fWD, nil
	case "yld":
		var tid int
		if _, err := fmt.Sscanf(ln, "f yld %d", &tid); err != nil {
			return nil, fmt.Errorf("bad yld frame %q: %v", ln, err)
		}
		m.fY = fYieldCPU{os: os, t: s.taskOrNil(tid)}
		return &m.fY, nil
	case "dec":
		m.fDec = fDecideFrom{os: os}
		return &m.fDec, nil
	case "ew", "en":
		var ix int
		if _, err := fmt.Sscanf(ln, "f "+tag+" %d", &ix); err != nil {
			return nil, fmt.Errorf("bad %s frame %q: %v", tag, ln, err)
		}
		evs := s.osEventList()
		if ix < 0 || ix >= len(evs) {
			return nil, fmt.Errorf("os event index %d out of range (%d)", ix, len(evs))
		}
		if tag == "ew" {
			m.fEW = fEventWait{os: os, e: evs[ix]}
			return &m.fEW, nil
		}
		m.fEN = fEventNotify{os: os, e: evs[ix]}
		return &m.fEN, nil
	case "sus":
		var ws int
		var site string
		if _, err := fmt.Sscanf(ln, "f sus %d %q", &ws, &site); err != nil {
			return nil, fmt.Errorf("bad sus frame %q: %v", ln, err)
		}
		m.fSus = fSuspend{os: os, ws: core.TaskState(ws), site: site}
		return &m.fSus, nil
	case "res":
		var tid int
		if _, err := fmt.Sscanf(ln, "f res %d", &tid); err != nil {
			return nil, fmt.Errorf("bad res frame %q: %v", ln, err)
		}
		m.fRes = fResume{os: os, t: s.taskOrNil(tid)}
		return &m.fRes, nil
	case "op":
		var kind, pc, tid int
		var ref string
		var v, ret int64
		if _, err := fmt.Sscanf(ln, "f op %d %s %d %d %d %d", &kind, &ref, &v, &ret, &tid, &pc); err != nil {
			return nil, fmt.Errorf("bad op frame %q: %v", ln, err)
		}
		m.fOp = opFrame{kind: opKind(kind), v: v, ret: ret, t: s.taskOrNil(tid), pc: pc}
		var cix int
		if _, err := fmt.Sscanf(ref[1:], "%d", &cix); err != nil {
			return nil, fmt.Errorf("bad op channel ref %q", ref)
		}
		switch ref[0] {
		case 'q':
			if cix < 0 || cix >= len(qs) {
				return nil, fmt.Errorf("op queue index %d out of range (%d)", cix, len(qs))
			}
			m.fOp.q = qs[cix]
		case 's':
			if cix < 0 || cix >= len(ss) {
				return nil, fmt.Errorf("op semaphore index %d out of range (%d)", cix, len(ss))
			}
			m.fOp.s = ss[cix]
		default:
			return nil, fmt.Errorf("bad op channel ref %q", ref)
		}
		return &m.fOp, nil
	default:
		return nil, fmt.Errorf("unknown frame tag %q", tag)
	}
}

// --- line codec ---

type snapEncoder struct{ b bytes.Buffer }

func (e *snapEncoder) line(format string, args ...interface{}) {
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

func (e *snapEncoder) ints(tag string, vals []int) {
	fmt.Fprintf(&e.b, "%s %d", tag, len(vals))
	for _, v := range vals {
		fmt.Fprintf(&e.b, " %d", v)
	}
	e.b.WriteByte('\n')
}

func (e *snapEncoder) ints64(tag string, vals []int64) {
	fmt.Fprintf(&e.b, "%s %d", tag, len(vals))
	for _, v := range vals {
		fmt.Fprintf(&e.b, " %d", v)
	}
	e.b.WriteByte('\n')
}

type snapDecoder struct {
	lines []string
	pos   int
}

func (d *snapDecoder) next() (string, error) {
	for d.pos < len(d.lines) {
		ln := d.lines[d.pos]
		d.pos++
		if ln != "" {
			return ln, nil
		}
	}
	return "", fmt.Errorf("snapshot truncated at line %d", d.pos)
}

func (d *snapDecoder) expect(want string) error {
	ln, err := d.next()
	if err != nil {
		return err
	}
	if ln != want {
		return fmt.Errorf("snapshot line %d: got %q, want %q", d.pos, ln, want)
	}
	return nil
}

func (d *snapDecoder) scan(format string, args ...interface{}) error {
	ln, err := d.next()
	if err != nil {
		return err
	}
	n, err := fmt.Sscanf(ln, format, args...)
	if err != nil || n != len(args) {
		return fmt.Errorf("snapshot line %d %q does not match %q: %v", d.pos, ln, format, err)
	}
	return nil
}

func (d *snapDecoder) intsParse(tag string) ([]int64, error) {
	ln, err := d.next()
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(ln)
	if len(fields) < 2 || fields[0] != tag {
		return nil, fmt.Errorf("snapshot line %d %q: want %q list", d.pos, ln, tag)
	}
	var n int
	if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || n != len(fields)-2 {
		return nil, fmt.Errorf("snapshot line %d %q: bad %q list length", d.pos, ln, tag)
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		if _, err := fmt.Sscanf(fields[i+2], "%d", &out[i]); err != nil {
			return nil, fmt.Errorf("snapshot line %d %q: bad int %q", d.pos, ln, fields[i+2])
		}
	}
	return out, nil
}

func (d *snapDecoder) ints(tag string) ([]int, error) {
	v64, err := d.intsParse(tag)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(v64))
	for i, v := range v64 {
		out[i] = int(v)
	}
	return out, nil
}

func (d *snapDecoder) ints64(tag string) ([]int64, error) {
	return d.intsParse(tag)
}
