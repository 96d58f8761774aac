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
	var e core.StateWriter
	e.Line("%s", snapVersion)
	e.Line("struct %s", s.structureHash())
	e.Line("k now=%d delta=%d timerseq=%d", int64(k.now), k.delta, k.timerSeq)

	os := s.os
	os.EncodeState(&e)

	// OS events exist one per generic-personality channel, in channel
	// declaration order; their FIFO queues are task ids.
	osEvents := s.osEventList()
	e.Line("osevents %d", len(osEvents))
	for _, oe := range osEvents {
		oe.EncodeState(&e)
	}

	// Task body state is carried even when a machine has finished (empty
	// stack) — Finish still reads per-task outcomes such as MaxResp off
	// the body frame after the machine is done.
	e.Line("bodies %d", len(s.bodies))
	for _, f := range s.bodies {
		switch fr := f.(type) {
		case *fPeriodicBody:
			e.Line("b pb %d %d %d %d %d", fr.c, fr.segIx, int64(fr.rel), int64(fr.resp), fr.pc)
		case *fAperiodicBody:
			e.Line("b ab %d %d %d", fr.rep, fr.opIx, fr.pc)
		default:
			return nil, fmt.Errorf("rtc: unknown body frame %T", f)
		}
	}

	// Every channel object writes its own state; ITRON objects keep part
	// of theirs in the tasks' tcbs.
	e.Line("chans %d", len(s.chans))
	for _, c := range s.chans {
		c.obj.EncodeState(&e)
	}
	if os.itron != nil {
		os.itron.EncodeState(&e)
	}

	e.Line("machines %d", len(k.machines))
	for i, m := range k.machines {
		// parked and preempt restate the wait the state names: parked in
		// fWaitDispatched, or in a segmented delay that an interrupt can
		// cut short.
		e.Line("m %d state=%d timedout=%t parked=%t preempt=%t", i, int(m.state), m.timedOut,
			m.state == mWaitEvent, m.state == mWaitTimeout)
		e.Line("stk %d", len(m.stack))
		for _, f := range m.stack {
			if err := s.encodeFrame(&e, f); err != nil {
				return nil, err
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
	e.Line("timers %d", len(timers))
	for _, ti := range timers {
		e.Line("ti at=%d seq=%d mach=%d", int64(ti.at), ti.seq, ti.ix)
	}

	if os.rec == nil {
		e.Line("recs 0")
	} else {
		e.Line("recs %d", os.rec.Len())
		os.rec.Each(func(r trace.Record) {
			e.Line("rec %d %d %d %q %q %q %q", int64(r.At), int(r.Kind), r.Arg, r.Task, r.From, r.To, r.Label)
		})
	}

	return &Checkpoint{At: k.now, Structure: s.structureHash(), State: e.Bytes()}, nil
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
	d := core.NewStateReader(cp.State)
	if err := d.Expect(snapVersion); err != nil {
		return err
	}
	var structHash string
	if err := d.Scan("struct %s", &structHash); err != nil {
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

	if err := d.Scan("k now=%d delta=%d timerseq=%d", &k.now, &k.delta, &k.timerSeq); err != nil {
		return err
	}

	if err := os.DecodeState(d); err != nil {
		return err
	}

	osEvents := s.osEventList()
	if err := d.Count("osevents", len(osEvents)); err != nil {
		return err
	}
	for _, oe := range osEvents {
		if err := oe.DecodeState(&os.Sched, d); err != nil {
			return err
		}
	}

	if err := d.Count("bodies", len(s.bodies)); err != nil {
		return err
	}
	for _, f := range s.bodies {
		var err error
		switch fr := f.(type) {
		case *fPeriodicBody:
			err = d.Scan("b pb %d %d %d %d %d", &fr.c, &fr.segIx, &fr.rel, &fr.resp, &fr.pc)
		case *fAperiodicBody:
			err = d.Scan("b ab %d %d %d", &fr.rep, &fr.opIx, &fr.pc)
		default:
			err = fmt.Errorf("unknown body frame %T", f)
		}
		if err != nil {
			return err
		}
	}

	if err := d.Count("chans", len(s.chans)); err != nil {
		return err
	}
	for _, c := range s.chans {
		if err := c.obj.DecodeState(&os.Sched, d); err != nil {
			return err
		}
	}
	if os.itron != nil {
		if err := os.itron.DecodeState(d); err != nil {
			return err
		}
	}

	if err := d.Count("machines", len(k.machines)); err != nil {
		return err
	}
	var ix int
	var parked, preempt bool
	for i, m := range k.machines {
		if err := d.Scan("m %d state=%d timedout=%t parked=%t preempt=%t",
			&ix, &m.state, &m.timedOut, &parked, &preempt); err != nil {
			return err
		}
		if ix != i {
			return fmt.Errorf("machine record %d out of order (got %d)", i, ix)
		}
		if parked != (m.state == mWaitEvent) || preempt != (m.state == mWaitTimeout) {
			return fmt.Errorf("machine %d: parked=%t preempt=%t contradict state=%d", i, parked, preempt, int(m.state))
		}
		var depth int
		if err := d.Scan("stk %d", &depth); err != nil {
			return err
		}
		body := m.stack[0] // the spawn body; frame 0 of any live stack
		for j := range m.stack {
			m.stack[j] = nil
		}
		m.stack = m.stack[:0]
		for j := 0; j < depth; j++ {
			f, err := s.decodeFrame(d, m, body, j == 0)
			if err != nil {
				return err
			}
			m.stack = append(m.stack, f)
		}
	}

	var nTimers int
	if err := d.Scan("timers %d", &nTimers); err != nil {
		return err
	}
	for j := 0; j < nTimers; j++ {
		var at int64
		var tsq, mach int
		if err := d.Scan("ti at=%d seq=%d mach=%d", &at, &tsq, &mach); err != nil {
			return err
		}
		if mach < 0 || mach >= len(k.machines) {
			return fmt.Errorf("timer machine %d out of range (%d machines)", mach, len(k.machines))
		}
		_, _, queued := k.timers.Queued(mach)
		switch {
		case Time(at) < k.now:
			return fmt.Errorf("timer of machine %d due at %d, before now %d", mach, at, int64(k.now))
		case tsq > k.timerSeq:
			return fmt.Errorf("timer of machine %d has seq %d above timerseq %d", mach, tsq, k.timerSeq)
		case queued:
			return fmt.Errorf("machine %d named by two timers", mach)
		}
		k.timers.Push(mach, Time(at), tsq)
	}
	for i, m := range k.machines {
		if err := s.checkWait(i, m); err != nil {
			return err
		}
	}

	var nRecs int
	if err := d.Scan("recs %d", &nRecs); err != nil {
		return err
	}
	if nRecs > 0 && os.rec == nil {
		return fmt.Errorf("snapshot has %d trace records, workload does not trace", nRecs)
	}
	for j := 0; j < nRecs; j++ {
		var at int64
		var kind int
		var arg int64
		var task, from, to, label string
		if err := d.Scan("rec %d %d %d %q %q %q %q", &at, &kind, &arg, &task, &from, &to, &label); err != nil {
			return err
		}
		if kind < 0 || kind > 0xff {
			return fmt.Errorf("trace record %d has kind %d, outside 0..255", j, kind)
		}
		os.rec.Append(trace.Record{At: Time(at), Kind: trace.Kind(kind), Arg: arg,
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

// encodeFrame writes one stack frame: its type tag plus every mutable
// field. Structural fields (bound tasks of body frames, segment lists,
// op lists) are rebuilt by the session constructor and omitted; a task
// body's state is in the checkpoint's bodies section.
func (s *Session) encodeFrame(e *core.StateWriter, f frame) error {
	switch fr := f.(type) {
	case *fPeriodicBody, *fAperiodicBody:
		e.Line("f body")
	case *fIRQBody:
		e.Line("f irq %d %d", fr.i, fr.pc)
	case *fWatchdogBody:
		e.Line("f wd %d %t %d", fr.wd.Last, fr.wd.Starving, fr.pc)
	case *fActivate:
		e.Line("f act %d", fr.pc)
	case *fEndCycle:
		e.Line("f end %d %d", int64(fr.next), fr.pc)
	case *fTimeWait:
		e.Line("f tw %d %d %d %d", int64(fr.d), int64(fr.remaining), int64(fr.start), fr.pc)
	case *fWaitDispatched:
		e.Line("f wdis %d", fr.pc)
	case *opFrame:
		ix := 0 // the channel's declaration index
		for &s.chans[ix] != fr.c {
			ix++
		}
		e.Line("f op %d %d %d %d", int(fr.op), ix, fr.val, fr.pc)
	default:
		return fmt.Errorf("rtc: unknown frame type %T", f)
	}
	return nil
}

// decodeFrame reads one frame line back onto machine m. Frame 0 of a
// stack must be the machine's spawn body (taken from the fresh build);
// service frames land in the machine's preallocated slots, exactly as
// the call helpers place them. A task service frame needs a machine that
// runs a task, an op frame an op its channel's kind has, and an op frame
// on a machine without a task (an interrupt handler's) a release.
func (s *Session) decodeFrame(d *core.StateReader, m *machine, body frame, isBody bool) (frame, error) {
	ln, err := d.Next()
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(ln)
	if len(fields) < 2 || fields[0] != "f" {
		return nil, fmt.Errorf("bad frame line %q", ln)
	}
	tag := fields[1]
	bodyTag := map[string]bool{"body": true, "irq": true, "wd": true}[tag]
	if bodyTag != isBody {
		return nil, fmt.Errorf("frame %q at stack position mismatch (body=%t)", tag, isBody)
	}
	// scan reads the line's fields after the tag into args.
	scan := func(f frame, args ...any) (frame, error) {
		if _, err := fmt.Sscan(strings.Join(fields[2:], " "), args...); err != nil {
			return nil, fmt.Errorf("bad %s frame %q: %v", tag, ln, err)
		}
		return f, nil
	}
	if m.task == nil && (tag == "act" || tag == "end" || tag == "tw" || tag == "wdis") {
		return nil, fmt.Errorf("%s frame on machine %s, which runs no task", tag, m.name)
	}
	switch tag {
	case "body": // restored from the bodies section
		switch body.(type) {
		case *fPeriodicBody, *fAperiodicBody:
			return body, nil
		}
	case "irq":
		if fr, ok := body.(*fIRQBody); ok {
			return scan(fr, &fr.i, &fr.pc)
		}
	case "wd":
		if fr, ok := body.(*fWatchdogBody); ok {
			return scan(fr, &fr.wd.Last, &fr.wd.Starving, &fr.pc)
		}
	case "act":
		m.fAct = fActivate{}
		return scan(&m.fAct, &m.fAct.pc)
	case "end":
		m.fEnd = fEndCycle{}
		return scan(&m.fEnd, &m.fEnd.next, &m.fEnd.pc)
	case "tw":
		m.fTW = fTimeWait{}
		return scan(&m.fTW, &m.fTW.d, &m.fTW.remaining, &m.fTW.start, &m.fTW.pc)
	case "wdis":
		m.fWD = fWaitDispatched{}
		return scan(&m.fWD, &m.fWD.pc)
	case "op":
		var cix int
		m.fOp = opFrame{}
		if _, err := scan(nil, &m.fOp.op, &cix, &m.fOp.val, &m.fOp.pc); err != nil {
			return nil, err
		}
		if cix < 0 || cix >= len(s.chans) {
			return nil, fmt.Errorf("op channel index %d out of range (%d channels)", cix, len(s.chans))
		}
		if def := s.w.Channels[cix]; !opOnKind(m.fOp.op, def.Kind) {
			return nil, fmt.Errorf("op %d on %s %q, which has no such op", int(m.fOp.op), def.Kind, def.Name)
		}
		if m.task == nil && m.fOp.op != core.OpRelease {
			return nil, fmt.Errorf("op %d on machine %s, which runs no task and only releases", int(m.fOp.op), m.name)
		}
		m.fOp.c = &s.chans[cix]
		return &m.fOp, nil
	default:
		return nil, fmt.Errorf("unknown frame tag %q", tag)
	}
	return nil, fmt.Errorf("snapshot frame %s but machine body is %T", tag, body)
}
