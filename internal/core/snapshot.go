package core

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// This file is the scheduler half of the run-to-completion engine's
// checkpoint format (internal/rtc): a deterministic line encoding of a
// Sched's state, stated once next to the fields it covers. The engine
// encodes its own machines, frames and channels around it with the same
// codec.

// StateCodec writes a checkpoint or reads one back through the same
// calls, so each object states its encoding once: a State method that
// hands the codec pointers to its fields, line by line. Writing formats
// the pointed-to values; reading parses the next line into them, and the
// line must be exactly what writing those values would have produced.
//
// The first error sticks: later calls do nothing and Err reports it. Code
// that acts on decoded values (resolving an index, filling a queue)
// therefore runs only while Restoring holds.
type StateCodec struct {
	sched   *Sched // resolves task ids
	reading bool
	buf     []byte // writing: the encoding so far; reading: scratch
	in      string // reading: the input not yet consumed
	line    string // reading: the current line
	rest    string // reading: its part not yet matched
	open    bool   // a line is begun and not yet ended
	n       int    // reading: the current line's number
	err     error
}

// NewStateEncoder returns a codec that writes the state of objects over
// the tasks of s.
func NewStateEncoder(s *Sched) *StateCodec { return &StateCodec{sched: s} }

// NewStateDecoder returns a codec that reads state back into objects
// over the tasks of s. It reads a copy of state, which the strings it
// decodes may share.
func NewStateDecoder(s *Sched, state []byte) *StateCodec {
	return &StateCodec{sched: s, reading: true, in: string(state)}
}

// Reading reports whether c reads.
func (c *StateCodec) Reading() bool { return c.reading }

// Restoring reports whether c reads and has met no error: the condition
// for applying what it decoded.
func (c *StateCodec) Restoring() bool { return c.reading && c.err == nil }

// Err returns the first error c met.
func (c *StateCodec) Err() error { return c.err }

// Failf records an error unless c already holds one.
func (c *StateCodec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Bytes returns the encoding written so far.
func (c *StateCodec) Bytes() []byte { return c.buf }

// End refuses input left after the last record.
func (c *StateCodec) End() {
	if c.Restoring() && c.in != "" {
		c.Failf("snapshot has input after line %d", c.n)
	}
}

// Line writes or reads one whole line: format's text, with each verb (%d,
// %t, %s or %q) standing for the value the matching arg points to. A %d
// value must fit its field's integer type; a %s value holds no space.
func (c *StateCodec) Line(format string, args ...any) {
	c.Part(format, args...)
	c.endLine(format)
}

// Part is Line without the line's end: the next call continues the line.
func (c *StateCodec) Part(format string, args ...any) {
	if !c.beginLine() {
		return
	}
	for format != "" {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			i = len(format)
		}
		if !c.literal(format[:i]) {
			break
		}
		if i == len(format) {
			return
		}
		if !c.value(format[i+1], args[0]) {
			break
		}
		format, args = format[i+2:], args[1:]
	}
	if format != "" {
		c.mismatch(format)
	}
}

// Count writes the line "tag n" or reads it back, refusing any n but the
// receiving side's.
func (c *StateCodec) Count(tag string, n int) {
	got := c.head(tag, n)
	c.endLine(tag)
	if c.err == nil && got != n {
		c.Failf("snapshot has %d %s, workload has %d", got, tag, n)
	}
}

// List writes or reads the line "tag n v1 … vn" of *vals, each value
// formatted as a %d; reading replaces *vals, reusing its storage.
func List[T any](c *StateCodec, tag string, vals *[]T) {
	n := c.listHead(tag, len(*vals))
	if c.reading {
		*vals = slices.Grow((*vals)[:0], n)[:n]
	}
	for i := range *vals {
		c.elem(&(*vals)[i])
	}
	c.endLine(tag)
}

// Tasks writes or reads a task list as a List of task ids; reading
// resolves the ids over c's Sched into *ts, reusing its storage.
func (c *StateCodec) Tasks(tag string, ts *[]*Task) {
	n := c.listHead(tag, len(*ts))
	out := (*ts)[:0]
	for i := 0; i < n && c.err == nil; i++ {
		if !c.reading {
			c.elem(&(*ts)[i].id)
			continue
		}
		id := -1
		c.elem(&id)
		out = append(out, c.Task(id))
	}
	c.endLine(tag)
	if c.Restoring() {
		*ts = out
	}
}

// Task resolves an encoded task id, failing c on an id out of range.
func (c *StateCodec) Task(id int) *Task {
	if id < 0 || id >= len(c.sched.tasks) {
		c.Failf("task id %d out of range (%d tasks)", id, len(c.sched.tasks))
		return nil
	}
	return c.sched.tasks[id]
}

// beginLine starts a line unless one is open; it reports whether c may
// go on.
func (c *StateCodec) beginLine() bool {
	if c.err != nil {
		return false
	}
	if c.open || !c.reading {
		c.open = true
		return true
	}
	i := strings.IndexByte(c.in, '\n')
	if i < 0 {
		c.Failf("snapshot truncated after line %d", c.n)
		return false
	}
	c.line, c.rest, c.in = c.in[:i], c.in[:i], c.in[i+1:]
	c.n++
	c.open = true
	return true
}

// endLine ends the open line; reading, nothing may be left of it. want
// names what the line should have held.
func (c *StateCodec) endLine(want string) {
	if c.err != nil {
		return
	}
	c.open = false
	if !c.reading {
		c.buf = append(c.buf, '\n')
	} else if c.rest != "" {
		c.mismatch(want)
	}
}

// head writes or reads "tag n" and returns n.
func (c *StateCodec) head(tag string, n int) int {
	if !c.beginLine() || !c.literal(tag) || !c.literal(" ") || !c.value('d', &n) {
		c.mismatch(tag)
		return 0
	}
	return n
}

// listHead is head for a list: reading, n must be the number of fields
// left on the line.
func (c *StateCodec) listHead(tag string, n int) int {
	n = c.head(tag, n)
	if c.Restoring() && n != strings.Count(c.rest, " ") {
		c.Failf("snapshot line %d %q: bad %s list length", c.n, c.line, tag)
		return 0
	}
	return n
}

// elem writes or reads one list element.
func (c *StateCodec) elem(p any) {
	if c.err == nil && !(c.literal(" ") && c.value('d', p)) {
		c.Failf("snapshot line %d %q: bad list element", c.n, c.line)
	}
}

// literal writes s or matches it.
func (c *StateCodec) literal(s string) bool {
	if !c.reading {
		c.buf = append(c.buf, s...)
		return true
	}
	if !strings.HasPrefix(c.rest, s) {
		return false
	}
	c.rest = c.rest[len(s):]
	return true
}

// value writes the value p points to under verb, or parses the next field
// into it. A field must read back as written, so it has one spelling.
func (c *StateCodec) value(verb byte, p any) bool {
	if !c.reading {
		c.buf = appendValue(c.buf, verb, p)
		return true
	}
	tok, err := c.rest, error(nil)
	if verb == 'q' {
		tok, err = strconv.QuotedPrefix(tok)
	} else if i := strings.IndexByte(tok, ' '); i >= 0 {
		tok = tok[:i]
	}
	if err != nil || setValue(verb, p, tok) != nil {
		return false
	}
	c.buf = appendValue(c.buf[:0], verb, p)
	if string(c.buf) != tok {
		return false
	}
	c.rest = c.rest[len(tok):]
	return true
}

// mismatch fails c on a line that does not hold what want describes.
func (c *StateCodec) mismatch(want string) {
	if c.err == nil {
		c.Failf("snapshot line %d %q does not match %q", c.n, c.line, want)
	}
}

// appendValue formats *p under verb.
func appendValue(b []byte, verb byte, p any) []byte {
	v := reflect.ValueOf(p).Elem()
	switch {
	case verb == 'q':
		return strconv.AppendQuote(b, v.String())
	case verb == 's':
		return append(b, v.String()...)
	case verb == 't':
		return strconv.AppendBool(b, v.Bool())
	case v.CanInt():
		return strconv.AppendInt(b, v.Int(), 10)
	}
	return strconv.AppendUint(b, v.Uint(), 10)
}

// setValue parses tok into *p under verb.
func setValue(verb byte, p any, tok string) error {
	v := reflect.ValueOf(p).Elem()
	switch {
	case verb == 'q':
		s, err := strconv.Unquote(tok)
		v.SetString(s)
		return err
	case verb == 's':
		v.SetString(tok)
	case verb == 't':
		b, err := strconv.ParseBool(tok)
		v.SetBool(b)
		return err
	case v.CanInt():
		x, err := strconv.ParseInt(tok, 10, v.Type().Bits())
		v.SetInt(x)
		return err
	default:
		x, err := strconv.ParseUint(tok, 10, v.Type().Bits())
		v.SetUint(x)
		return err
	}
	return nil
}

// taskID is t's id, or -1 for nil.
func taskID(t *Task) int {
	if t == nil {
		return -1
	}
	return t.id
}

// State writes or reads the scheduler state: dispatcher and accounting
// fields, counters, every task control block, the ready queue in
// dispatch order and the resource holders of the wait-for graph. Reading
// needs a Sched set up with the same tasks and resources. The policy may
// differ: ready tasks are ranked under the current one, keeping their
// FIFO order. It states one CPU, all the run-to-completion engine drives.
func (s *Sched) State(c *StateCodec) {
	cur, last := taskID(s.current), taskID(s.lastRun)
	c.Line("os cur=%d last=%d seq=%d fseq=%d started=%t startedAt=%d idleSince=%d idleValid=%t delayStart=%d delayValid=%t progress=%d",
		&cur, &last, &s.seq, &s.frontSeq, &s.started, &s.startedAt, &s.idleSince, &s.idleValid,
		&s.delayStart, &s.delayValid, &s.progress)
	if c.Restoring() {
		s.current, s.lastRun = c.taskOrNil(cur), c.taskOrNil(last)
	}
	st := &s.stats
	c.Line("stats disp=%d cs=%d pre=%d irqs=%d idle=%d busy=%d ovh=%d",
		&st.Dispatches, &st.ContextSwitches, &st.Preemptions, &st.IRQs,
		&st.IdleTime, &st.BusyTime, &st.OverheadTime)

	res := s.monitor.resources
	c.Count("tasks", len(s.tasks))
	for _, t := range s.tasks {
		wres := slices.Index(res, t.waitingRes) // -1: none
		c.Line("t state=%d prio=%d rel=%d dl=%d slice=%d lwd=%d cpu=%d act=%d miss=%d wres=%d site=%q",
			&t.state, &t.prio, &t.release, &t.deadline, &t.sliceUsed, &t.lastWorkDone, &t.cpuTime,
			&t.activations, &t.missed, &wres, &t.blockSite)
		if wres < -1 || wres >= len(res) {
			c.Failf("task %s waits on resource %d of %d", t.name, wres, len(res))
		}
		if c.Restoring() {
			t.cpu, t.waitingRes = -1, nil
			if t == s.current {
				t.cpu = 0
			}
			if wres >= 0 {
				t.waitingRes = res[wres]
			}
		}
	}

	ready := make([]int, 0, 2*len(s.rq)) // (task id, ready seq) pairs
	for _, t := range s.rq {
		ready = append(ready, t.id, t.readySeq)
	}
	c.pairs("ready", &ready)
	if c.Restoring() {
		s.rq.clear()
		for i := 0; i < len(ready); i += 2 {
			s.rq.push(s.tasks[ready[i]], ready[i+1])
		}
	}

	c.Count("resources", len(res))
	for _, r := range res {
		holders := make([]int, 0, 2*len(r.holders)) // (task id, count) pairs
		for _, h := range r.holders {
			holders = append(holders, h.t.id, h.n)
		}
		c.pairs("r", &holders)
		if c.Restoring() {
			r.holders = r.holders[:0]
			for i := 0; i < len(holders); i += 2 {
				r.holders = append(r.holders, holderCount{t: s.tasks[holders[i]], n: holders[i+1]})
			}
		}
	}
}

// pairs writes or reads a List of (task id, value) pairs; reading, every
// task id must resolve.
func (c *StateCodec) pairs(tag string, vals *[]int) {
	List(c, tag, vals)
	if len(*vals)%2 != 0 {
		c.Failf("%s list has odd length", tag)
	}
	for i := 0; c.Restoring() && i < len(*vals); i += 2 {
		if id := (*vals)[i]; id < 0 || id >= len(c.sched.tasks) {
			c.Failf("bad task id %d in %s list", id, tag)
		}
	}
}

// taskOrNil resolves an encoded task id, -1 standing for none.
func (c *StateCodec) taskOrNil(id int) *Task {
	if id == -1 {
		return nil
	}
	return c.Task(id)
}

// State writes or reads e's wait queue.
func (e *OSEvent) State(c *StateCodec) { c.Tasks("oe", &e.queue) }
