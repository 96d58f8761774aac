package core

import (
	"bytes"
	"fmt"
	"strings"
)

// This file is the scheduler half of the run-to-completion engine's
// checkpoint format (internal/rtc): a deterministic line encoding of a
// Sched's state, written and read next to the fields it covers. The
// engine encodes its own machines, frames and channels around it with the
// same line codec.

// StateWriter accumulates a checkpoint, one formatted line at a time.
type StateWriter struct{ b bytes.Buffer }

// Line appends one formatted line.
func (e *StateWriter) Line(format string, args ...any) {
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

// Ints appends a tagged, length-prefixed list of ints.
func (e *StateWriter) Ints(tag string, vals []int) { writeInts(&e.b, tag, vals) }

// Ints64 is Ints for int64 values.
func (e *StateWriter) Ints64(tag string, vals []int64) { writeInts(&e.b, tag, vals) }

func writeInts[T int | int64](b *bytes.Buffer, tag string, vals []T) {
	fmt.Fprintf(b, "%s %d", tag, len(vals))
	for _, v := range vals {
		fmt.Fprintf(b, " %d", v)
	}
	b.WriteByte('\n')
}

// Bytes returns the encoding written so far.
func (e *StateWriter) Bytes() []byte { return e.b.Bytes() }

// StateReader reads back what a StateWriter wrote, line by line.
type StateReader struct {
	lines []string
	pos   int
}

// NewStateReader returns a reader over an encoded checkpoint.
func NewStateReader(state []byte) *StateReader {
	return &StateReader{lines: strings.Split(string(state), "\n")}
}

// Next returns the next non-empty line.
func (d *StateReader) Next() (string, error) {
	for d.pos < len(d.lines) {
		ln := d.lines[d.pos]
		d.pos++
		if ln != "" {
			return ln, nil
		}
	}
	return "", fmt.Errorf("snapshot truncated at line %d", d.pos)
}

// Expect consumes a line that must equal want.
func (d *StateReader) Expect(want string) error {
	ln, err := d.Next()
	if err != nil {
		return err
	}
	if ln != want {
		return fmt.Errorf("snapshot line %d: got %q, want %q", d.pos, ln, want)
	}
	return nil
}

// Scan parses the next line with format, which must fill every arg.
func (d *StateReader) Scan(format string, args ...any) error {
	ln, err := d.Next()
	if err != nil {
		return err
	}
	n, err := fmt.Sscanf(ln, format, args...)
	if err != nil || n != len(args) {
		return fmt.Errorf("snapshot line %d %q does not match %q: %v", d.pos, ln, format, err)
	}
	return nil
}

// Count reads a "tag n" line and checks n against the receiving side's
// count.
func (d *StateReader) Count(tag string, want int) error {
	var n int
	if err := d.Scan(tag+" %d", &n); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("snapshot has %d %s, workload has %d", n, tag, want)
	}
	return nil
}

// Ints64 reads a list written by StateWriter.Ints64 under tag.
func (d *StateReader) Ints64(tag string) ([]int64, error) {
	ln, err := d.Next()
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

// Ints reads a list written by StateWriter.Ints under tag.
func (d *StateReader) Ints(tag string) ([]int, error) {
	v64, err := d.Ints64(tag)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(v64))
	for i, v := range v64 {
		out[i] = int(v)
	}
	return out, nil
}

// taskID is t's id, or -1 for nil.
func taskID(t *Task) int {
	if t == nil {
		return -1
	}
	return t.id
}

// TaskByID resolves an encoded task id (-1: nil).
func (s *Sched) TaskByID(id int) (*Task, error) {
	if id == -1 {
		return nil, nil
	}
	if id < 0 || id >= len(s.tasks) {
		return nil, fmt.Errorf("task id %d out of range (%d tasks)", id, len(s.tasks))
	}
	return s.tasks[id], nil
}

// EncodeState writes the scheduler state: dispatcher and accounting
// fields, counters, every task control block, the ready queue in
// dispatch order and the resource holders of the wait-for graph.
func (s *Sched) EncodeState(e *StateWriter) {
	e.Line("os cur=%d last=%d seq=%d fseq=%d started=%t startedAt=%d idleSince=%d idleValid=%t delayStart=%d delayValid=%t progress=%d",
		taskID(s.current), taskID(s.lastRun), s.seq, s.frontSeq, s.started,
		int64(s.startedAt), int64(s.idleSince), s.idleValid, int64(s.delayStart), s.delayValid, s.progress)
	st := s.stats
	e.Line("stats disp=%d cs=%d pre=%d irqs=%d idle=%d busy=%d ovh=%d",
		st.Dispatches, st.ContextSwitches, st.Preemptions, st.IRQs,
		int64(st.IdleTime), int64(st.BusyTime), int64(st.OverheadTime))

	resIx := make(map[*Resource]int, len(s.monitor.resources))
	for i, r := range s.monitor.resources {
		resIx[r] = i
	}
	e.Line("tasks %d", len(s.tasks))
	for _, t := range s.tasks {
		wres := -1
		if t.waitingRes != nil {
			wres = resIx[t.waitingRes]
		}
		e.Line("t state=%d prio=%d rel=%d dl=%d slice=%d lwd=%d cpu=%d act=%d miss=%d wres=%d site=%q",
			int(t.state), t.prio, int64(t.release), int64(t.deadline), int64(t.sliceUsed),
			int64(t.lastWorkDone), int64(t.cpuTime), t.activations, t.missed, wres, t.blockSite)
	}
	ready := make([]int, 0, 2*len(s.rq)) // (task id, ready seq) pairs
	for _, t := range s.rq {
		ready = append(ready, t.id, t.readySeq)
	}
	e.Ints("ready", ready)

	e.Line("resources %d", len(s.monitor.resources))
	for _, r := range s.monitor.resources {
		pairs := make([]int, 0, 2*len(r.holders))
		for _, h := range r.holders {
			pairs = append(pairs, h.t.id, h.n)
		}
		e.Ints("r", pairs)
	}
}

// EncodeState writes e's wait queue.
func (e *OSEvent) EncodeState(w *StateWriter) { w.Tasks("oe", e.queue) }

// DecodeState restores e's wait queue over the tasks of s.
func (e *OSEvent) DecodeState(s *Sched, d *StateReader) error {
	return s.DecodeTasks(d, "oe", &e.queue)
}

// Tasks appends a tagged list of task ids.
func (e *StateWriter) Tasks(tag string, ts []*Task) {
	ids := make([]int, len(ts))
	for i, t := range ts {
		ids[i] = t.id
	}
	e.Ints(tag, ids)
}

// DecodeTasks reads a list StateWriter.Tasks wrote into *dst, reusing
// its storage.
func (s *Sched) DecodeTasks(d *StateReader, tag string, dst *[]*Task) error {
	ids, err := d.Ints(tag)
	if err != nil {
		return err
	}
	out := (*dst)[:0]
	for _, id := range ids {
		t, err := s.TaskByID(id)
		if err != nil || t == nil {
			return fmt.Errorf("bad task id %d in %s list", id, tag)
		}
		out = append(out, t)
	}
	*dst = out
	return nil
}

// DecodeState restores what EncodeState wrote into a Sched that was set
// up with the same tasks and resources. The policy may differ: ready
// tasks are ranked under the current one, keeping their FIFO order.
func (s *Sched) DecodeState(d *StateReader) error {
	var cur, last int
	if err := d.Scan("os cur=%d last=%d seq=%d fseq=%d started=%t startedAt=%d idleSince=%d idleValid=%t delayStart=%d delayValid=%t progress=%d",
		&cur, &last, &s.seq, &s.frontSeq, &s.started, &s.startedAt, &s.idleSince, &s.idleValid,
		&s.delayStart, &s.delayValid, &s.progress); err != nil {
		return err
	}
	var err error
	if s.current, err = s.TaskByID(cur); err != nil {
		return err
	}
	if s.lastRun, err = s.TaskByID(last); err != nil {
		return err
	}
	st := &s.stats
	if err := d.Scan("stats disp=%d cs=%d pre=%d irqs=%d idle=%d busy=%d ovh=%d",
		&st.Dispatches, &st.ContextSwitches, &st.Preemptions, &st.IRQs,
		&st.IdleTime, &st.BusyTime, &st.OverheadTime); err != nil {
		return err
	}

	if err := d.Count("tasks", len(s.tasks)); err != nil {
		return err
	}
	res := s.monitor.resources
	for _, t := range s.tasks {
		wres := -1
		if err := d.Scan("t state=%d prio=%d rel=%d dl=%d slice=%d lwd=%d cpu=%d act=%d miss=%d wres=%d site=%q",
			&t.state, &t.prio, &t.release, &t.deadline, &t.sliceUsed, &t.lastWorkDone, &t.cpuTime,
			&t.activations, &t.missed, &wres, &t.blockSite); err != nil {
			return err
		}
		t.waitingRes = nil
		if wres >= len(res) {
			return fmt.Errorf("task %s waits on resource %d of %d", t.name, wres, len(res))
		} else if wres >= 0 {
			t.waitingRes = res[wres]
		}
	}
	s.rq.clear()
	if err := s.decodePairs(d, "ready", func(t *Task, seq int) { s.rq.push(t, seq) }); err != nil {
		return err
	}
	if err := d.Count("resources", len(res)); err != nil {
		return err
	}
	for _, r := range res {
		r.holders = r.holders[:0]
		if err := s.decodePairs(d, "r", func(t *Task, n int) {
			r.holders = append(r.holders, holderCount{t: t, n: n})
		}); err != nil {
			return err
		}
	}
	return nil
}

// decodePairs reads a list of (task id, value) pairs under tag.
func (s *Sched) decodePairs(d *StateReader, tag string, f func(t *Task, v int)) error {
	pairs, err := d.Ints(tag)
	if err != nil {
		return err
	}
	if len(pairs)%2 != 0 {
		return fmt.Errorf("%s list has odd length", tag)
	}
	for i := 0; i < len(pairs); i += 2 {
		t, err := s.TaskByID(pairs[i])
		if err != nil || t == nil {
			return fmt.Errorf("bad task id %d in %s list", pairs[i], tag)
		}
		f(t, pairs[i+1])
	}
	return nil
}
