package rtc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

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
const snapVersion = "rtcsnap/3"

// Snapshot captures the session's complete state. The session must be
// quiescent — paused at a RunUntil horizon with no failure — because a
// mid-delta-cycle capture would have machines in flight whose kernel
// queue positions are not part of the resumable state. Snapshot has no
// side effects; the session can keep running afterwards.
func (s *Session) Snapshot() (*Checkpoint, error) {
	k := s.k
	if s.w.Top != "" {
		// Hierarchical (SDL) sessions fork tasks and machines at runtime
		// and park ISRs on spec-level handshake latches outside the task set;
		// their state is not yet part of the rtcsnap encoding.
		return nil, fmt.Errorf("rtc: snapshot does not support hierarchical (SDL) workloads")
	}
	if k.stopped || s.err != nil {
		return nil, fmt.Errorf("rtc: cannot snapshot a stopped run (err: %v)", s.err)
	}
	if k.readyAt < len(k.ready) || len(k.next) > 0 {
		return nil, fmt.Errorf("rtc: cannot snapshot mid-delta-cycle; pause at a RunUntil horizon first")
	}
	structure := s.structureHash()
	c := core.NewStateEncoder(&s.os.Sched)
	s.state(c, structure)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("rtc: snapshot: %w", err)
	}
	return &Checkpoint{At: k.now, Structure: structure, State: c.Bytes()}, nil
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
	h := s.structureHash()
	if h != cp.Structure {
		return nil, fmt.Errorf("rtc: checkpoint structure mismatch (snapshot %.12s..., workload %.12s...): only Policy, Quantum and Horizon may change across a fork", cp.Structure, h)
	}
	// Discard the build's time-zero spawn enqueues: the checkpoint's
	// machines already ran their activation prefix.
	k := s.k
	clear(k.ready)
	k.ready, k.readyAt = k.ready[:0], 0
	k.next = k.next[:0]

	c := core.NewStateDecoder(&s.os.Sched, cp.State)
	s.state(c, h)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("rtc: restore: %w", err)
	}
	return s, nil
}

// state writes the session's state through c, or reads it back into the
// freshly built session. Every record is stated once, for both ways;
// what reading must check or rebuild runs while c.Restoring holds.
func (s *Session) state(c *core.StateCodec, structure string) {
	k, os := s.k, s.os
	c.Line(snapVersion)
	c.Line("struct " + structure)
	c.Line("k now=%d delta=%d timerseq=%d", &k.now, &k.delta, &k.timerSeq)
	os.Sched.State(c)

	// OS events exist one per generic-personality channel, in channel
	// declaration order; their FIFO queues are task ids.
	osEvents := s.osEventList()
	c.Count("osevents", len(osEvents))
	for _, oe := range osEvents {
		oe.State(c)
	}

	// Task body state is carried even when a machine has finished (empty
	// stack) — Finish still reads per-task outcomes such as MaxResp off
	// the body frame after the machine is done.
	c.Count("bodies", len(s.bodies))
	for _, f := range s.bodies {
		switch fr := f.(type) {
		case *fPeriodicBody:
			c.Line("b pb %d %d %d %d %d", &fr.c, &fr.segIx, &fr.rel, &fr.resp, &fr.pc)
		case *fAperiodicBody:
			c.Line("b ab %d %d %d", &fr.rep, &fr.opIx, &fr.pc)
		default:
			c.Failf("unknown body frame %T", f)
		}
	}

	// Every channel object states its own encoding; ITRON objects keep
	// part of theirs in the tasks' tcbs.
	c.Count("chans", len(s.chans))
	for _, ch := range s.chans {
		ch.obj.State(c)
	}
	if os.itron != nil {
		os.itron.State(c)
	}

	c.Count("machines", len(k.machines))
	for i, m := range k.machines {
		// parked and preempt restate the wait the state names: parked in
		// fWaitDispatched, or in a segmented delay that an interrupt can
		// cut short.
		ix, parked, preempt := i, m.state == mWaitEvent, m.state == mWaitTimeout
		c.Line("m %d state=%d timedout=%t parked=%t preempt=%t", &ix, &m.state, &m.timedOut, &parked, &preempt)
		switch {
		case ix != i:
			c.Failf("machine record %d out of order (got %d)", i, ix)
		case parked != (m.state == mWaitEvent) || preempt != (m.state == mWaitTimeout):
			c.Failf("machine %d: parked=%t preempt=%t contradict state=%d", i, parked, preempt, int(m.state))
		}
		depth := len(m.stack)
		c.Line("stk %d", &depth)
		if depth < 0 {
			c.Failf("machine %d has stack depth %d", i, depth)
		}
		var body frame
		if len(m.stack) > 0 {
			body = m.stack[0] // the spawn body; frame 0 of any live stack
		}
		stack := m.stack
		if c.Restoring() {
			clear(m.stack)
			m.stack, stack = m.stack[:0], nil
		}
		for j := 0; j < depth && c.Err() == nil; j++ {
			var f frame
			if j < len(stack) {
				f = stack[j]
			}
			if f = s.frame(c, m, f, body, j == 0); c.Restoring() {
				m.stack = append(m.stack, f)
			}
		}
	}

	// A timer's id is its machine's index.
	type timer struct {
		at      Time
		seq, ix int
	}
	timers := make([]timer, 0, k.timers.Len())
	k.timers.Each(func(id int, at Time, seq int) { timers = append(timers, timer{at, seq, id}) })
	sort.Slice(timers, func(i, j int) bool {
		if timers[i].at != timers[j].at {
			return timers[i].at < timers[j].at
		}
		return timers[i].seq < timers[j].seq
	})
	nTimers := len(timers)
	c.Line("timers %d", &nTimers)
	if nTimers < 0 {
		c.Failf("snapshot has %d timers", nTimers)
	}
	for j := 0; j < nTimers && c.Err() == nil; j++ {
		var ti timer
		if !c.Reading() {
			ti = timers[j]
		}
		c.Line("ti at=%d seq=%d mach=%d", &ti.at, &ti.seq, &ti.ix)
		if !c.Restoring() {
			continue
		}
		mach := ti.ix
		if mach < 0 || mach >= len(k.machines) {
			c.Failf("timer machine %d out of range (%d machines)", mach, len(k.machines))
			break
		}
		_, _, queued := k.timers.Queued(mach)
		switch {
		case ti.at < k.now:
			c.Failf("timer of machine %d due at %d, before now %d", mach, int64(ti.at), int64(k.now))
		case ti.seq > k.timerSeq:
			c.Failf("timer of machine %d has seq %d above timerseq %d", mach, ti.seq, k.timerSeq)
		case queued:
			c.Failf("machine %d named by two timers", mach)
		default:
			k.timers.Push(mach, ti.at, ti.seq)
		}
	}
	for i := 0; c.Restoring() && i < len(k.machines); i++ {
		if err := s.checkWait(i, k.machines[i]); err != nil {
			c.Failf("%w", err)
		}
	}

	nRecs := 0
	if os.rec != nil {
		nRecs = os.rec.Len()
	}
	c.Line("recs %d", &nRecs)
	if nRecs < 0 {
		c.Failf("snapshot has %d trace records", nRecs)
	} else if nRecs > 0 && os.rec == nil {
		c.Failf("snapshot has %d trace records, workload does not trace", nRecs)
	}
	// rec writes or reads one trace record.
	rec := func(r *trace.Record) {
		c.Line("rec %d %d %d %q %q %q %q", &r.At, &r.Kind, &r.Arg, &r.Task, &r.From, &r.To, &r.Label)
		if r.Kind < 0 || r.Kind > 0xff {
			c.Failf("trace record has kind %d, outside 0..255", int(r.Kind))
		}
	}
	if !c.Reading() && os.rec != nil {
		os.rec.Each(func(r trace.Record) { rec(&r) })
	}
	for j := 0; c.Restoring() && j < nRecs; j++ {
		var r trace.Record
		if rec(&r); c.Restoring() {
			os.rec.Append(r)
		}
	}
	c.End()

	if c.Restoring() {
		k.active = 0
		for _, m := range k.machines {
			if m.state != mDone {
				k.active++
			}
		}
	}
}

// checkWait refuses machine i unless its state is one a quiescent flat
// session can hold and its stack and timer agree with the wait that
// state names.
func (s *Session) checkWait(i int, m *machine) error {
	_, _, timer := s.k.timers.Queued(i)
	var top frame
	if n := len(m.stack); n > 0 {
		top = m.stack[n-1]
	}
	var bad string
	switch m.state {
	case mWaitEvent: // parked in fWaitDispatched
		wd, ok := top.(*fWaitDispatched)
		switch {
		case m.task == nil:
			bad = "waits to be dispatched but runs no task"
		case timer:
			bad = "waits to be dispatched but has a timer"
		case !ok || wd.pc != 1:
			bad = "waits to be dispatched but its top frame is not f wdis 1"
		}
	case mWaitTime:
		if !timer {
			bad = "sleeps but has no timer"
		}
	case mWaitTimeout: // in a segmented delay
		tw, ok := top.(*fTimeWait)
		switch {
		case !timer:
			bad = "is in a segmented delay but has no timer"
		case !ok || tw.pc != 11:
			bad = "is in a segmented delay but its top frame is not f tw at pc 11"
		}
	case mDone:
		switch {
		case len(m.stack) > 0:
			bad = "is done but has frames"
		case timer:
			bad = "is done but has a timer"
		}
	default:
		bad = "is in a state no quiescent session holds"
	}
	if bad != "" {
		return fmt.Errorf("machine %d (state=%d) %s", i, int(m.state), bad)
	}
	return nil
}

// structureHash fingerprints everything a checkpoint depends on except
// the fork knobs (Policy, Quantum, Horizon): name, personality, time
// model, tracing, watchdog, and the full task/channel/IRQ declarations.
func (s *Session) structureHash() string {
	w := s.w
	c := core.NewStateEncoder(nil)
	c.Line("rtcstruct/1 name=%q pers=%q tmodel=%d trace=%t wd=%d",
		&s.name, &s.pers, &w.TimeModel, &w.Trace, &w.WatchdogWindow)
	for i := range w.Tasks {
		td := &w.Tasks[i]
		segs := len(td.Segments)
		c.Part("task %q %q prio=%d period=%d cycles=%d start=%d repeat=%d segs=%d",
			&td.Name, &td.Type, &td.Prio, &td.Period, &td.Cycles, &td.Start, &td.Repeat, &segs)
		for j := range td.Segments {
			c.Part(" %d", &td.Segments[j])
		}
		c.Line("")
		for j := range td.Ops {
			op := &td.Ops[j]
			c.Line("op %q %d %q", &op.Kind, &op.Dur, &op.Ch)
		}
	}
	for i := range w.Channels {
		ch := &w.Channels[i]
		c.Line("chan %q %q %d", &ch.Name, &ch.Kind, &ch.Arg)
	}
	for i := range w.IRQs {
		irq := &w.IRQs[i]
		c.Line("irq %q %q at=%d every=%d count=%d", &irq.Name, &irq.Sem, &irq.At, &irq.Every, &irq.Count)
	}
	sum := sha256.Sum256(c.Bytes())
	return hex.EncodeToString(sum[:])
}

// --- lookup helpers ---

// osEventList enumerates OS-level events in creation order: one condition
// variable per generic-personality channel and handshake, in declaration
// order (the itron/osek channels suspend their waiters instead).
func (s *Session) osEventList() []*core.OSEvent {
	var out []*core.OSEvent
	for _, c := range s.chans {
		if c.ev != nil {
			out = append(out, c.ev)
		}
	}
	return out
}

// --- frame codec ---

// frame writes stack frame f of machine m, or reads the next frame line
// onto m and returns the frame it names. A frame line is the frame's tag
// plus every mutable field; structural fields (bound tasks of body
// frames, segment and op lists) are rebuilt by the session constructor,
// and a task body's state is in the checkpoint's bodies section. Frame 0
// of a stack is the machine's spawn body; service frames live in the
// machine's preallocated slots, where the call helpers place them. A
// task service frame needs a machine that runs a task, an op frame an op
// its channel's kind has, and an op frame on a machine without a task
// (an interrupt handler's) a release.
func (s *Session) frame(c *core.StateCodec, m *machine, f, body frame, isBody bool) frame {
	tag := frameTag(f)
	c.Part("f %s", &tag)
	if c.Err() != nil {
		return nil
	}
	bodyTag := tag == "body" || tag == "irq" || tag == "wd"
	switch {
	case bodyTag != isBody:
		c.Failf("frame %q at stack position mismatch (body=%t)", tag, isBody)
	case m.task == nil && (tag == "act" || tag == "end" || tag == "tw" || tag == "wdis"):
		c.Failf("%s frame on machine %s, which runs no task", tag, m.name)
	}
	switch tag {
	case "body":
		switch body.(type) {
		case *fPeriodicBody, *fAperiodicBody:
			c.Line("")
			return body
		}
	case "irq":
		if fr, ok := body.(*fIRQBody); ok {
			c.Line(" %d %d", &fr.i, &fr.pc)
			return fr
		}
	case "wd":
		if fr, ok := body.(*fWatchdogBody); ok {
			c.Line(" %d %t %d", &fr.wd.Last, &fr.wd.Starving, &fr.pc)
			return fr
		}
	case "act":
		c.Line(" %d", &m.fAct.pc)
		return &m.fAct
	case "end":
		c.Line(" %d %d", &m.fEnd.next, &m.fEnd.pc)
		return &m.fEnd
	case "tw":
		c.Line(" %d %d %d %d", &m.fTW.d, &m.fTW.remaining, &m.fTW.start, &m.fTW.pc)
		return &m.fTW
	case "wdis":
		c.Line(" %d", &m.fWD.pc)
		return &m.fWD
	case "op":
		fr, ix := &m.fOp, -1
		for i := range s.chans {
			if &s.chans[i] == fr.c {
				ix = i // the channel's declaration index
			}
		}
		c.Line(" %d %d %d %d", &fr.op, &ix, &fr.val, &fr.pc)
		if ix < 0 || ix >= len(s.chans) {
			c.Failf("op channel index %d out of range (%d channels)", ix, len(s.chans))
			return nil
		}
		if def := s.w.Channels[ix]; !opOnKind(fr.op, def.Kind) {
			c.Failf("op %d on %s %q, which has no such op", int(fr.op), def.Kind, def.Name)
		}
		if m.task == nil && fr.op != core.OpRelease {
			c.Failf("op %d on machine %s, which runs no task and only releases", int(fr.op), m.name)
		}
		fr.c = &s.chans[ix]
		return fr
	default:
		c.Failf("unknown frame tag %q", tag)
		return nil
	}
	c.Failf("snapshot frame %s but machine body is %T", tag, body)
	return nil
}

// frameTag names a frame in its checkpoint line ("" for none).
func frameTag(f frame) string {
	switch f.(type) {
	case nil:
		return ""
	case *fPeriodicBody, *fAperiodicBody:
		return "body"
	case *fIRQBody:
		return "irq"
	case *fWatchdogBody:
		return "wd"
	case *fActivate:
		return "act"
	case *fEndCycle:
		return "end"
	case *fTimeWait:
		return "tw"
	case *fWaitDispatched:
		return "wdis"
	case *opFrame:
		return "op"
	}
	return fmt.Sprintf("%T", f)
}
