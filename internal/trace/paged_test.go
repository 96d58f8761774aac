package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// randomRecords builds a seeded record sequence that touches every
// reader: task state changes, dispatches, IRQs, markers and execution
// segments over a few tasks, with non-decreasing timestamps. Names
// include "" and "-" (the idle task), and now and then a record carries
// strings its kind does not use, which must survive a round trip.
func randomRecords(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	tasks := []string{"A", "B", "C", ""}
	states := []string{"ready", "running", "delay", "wait", ""}
	labels := []string{"in", "out", "tick", "", "-"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	recs := make([]Record, 0, n)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Intn(3))
		task := pick(tasks)
		var rec Record
		switch rng.Intn(6) {
		case 0:
			rec = Record{At: at, Kind: KindTaskState, Task: task, From: pick(states), To: pick(states)}
		case 1:
			to := task
			if rng.Intn(5) == 0 {
				to = "-"
			}
			rec = Record{At: at, Kind: KindDispatch, From: pick(tasks), To: to}
		case 2:
			rec = Record{At: at, Kind: KindIRQ, Label: "irq" + fmt.Sprint(rng.Intn(2)), Arg: int64(rng.Intn(2))}
			if rng.Intn(10) == 0 {
				rec.Label = ""
			}
		case 3:
			rec = Record{At: at, Kind: KindMarker, Task: task, Label: pick(labels), Arg: int64(rng.Intn(8))}
		case 4:
			rec = Record{At: at, Kind: KindSegBegin, Task: task}
		default:
			rec = Record{At: at, Kind: KindSegEnd, Task: task}
		}
		if rng.Intn(20) == 0 {
			rec.Task, rec.From, rec.To, rec.Label = pick(tasks), pick(states), pick(tasks), pick(labels)
			rec.Arg = rng.Int63n(1000) - 500
		}
		recs = append(recs, rec)
	}
	return recs
}

// recorderOf appends recs to a fresh recorder.
func recorderOf(name string, recs []Record) *Recorder {
	r := New(name)
	for _, rec := range recs {
		r.Append(rec)
	}
	return r
}

// ref is the reference the recorder is checked against: the records as a
// plain []Record, read by straightforward string-comparing versions of
// every analysis and renderer.
type ref struct {
	name string
	recs []Record
}

func (t ref) end() sim.Time {
	if len(t.recs) == 0 {
		return 0
	}
	return t.recs[len(t.recs)-1].At
}

func (t ref) tasks() []string {
	set := map[string]bool{}
	for _, rec := range t.recs {
		if rec.Task != "" {
			set[rec.Task] = true
		}
	}
	names := []string{}
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (t ref) execIntervals(task string) []Interval {
	var out []Interval
	var openAt sim.Time
	open := false
	active := func(s string) bool { return s == "running" || s == "delay" }
	for _, rec := range t.recs {
		if rec.Task != task {
			continue
		}
		begin, end := false, false
		switch rec.Kind {
		case KindSegBegin:
			begin = true
		case KindSegEnd:
			end = true
		case KindTaskState:
			begin = !active(rec.From) && active(rec.To)
			end = active(rec.From) && !active(rec.To)
		}
		switch {
		case begin && !open:
			openAt, open = rec.At, true
		case end && open:
			open = false
			if n := len(out); n > 0 && out[n-1].End == openAt {
				out[n-1].End = rec.At
			} else {
				out = append(out, Interval{openAt, rec.At})
			}
		}
	}
	if open {
		if n := len(out); n > 0 && out[n-1].End == openAt {
			out[n-1].End = t.end()
		} else {
			out = append(out, Interval{openAt, t.end()})
		}
	}
	return out
}

func (t ref) busyTime(task string) sim.Time {
	var total sim.Time
	for _, iv := range t.execIntervals(task) {
		total += iv.Duration()
	}
	return total
}

func (t ref) overlap(a, b string) sim.Time {
	var total sim.Time
	for _, x := range t.execIntervals(a) {
		for _, y := range t.execIntervals(b) {
			if lo, hi := max(x.Start, y.Start), min(x.End, y.End); hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}

func (t ref) contextSwitches() int {
	n, last := 0, ""
	for _, rec := range t.recs {
		if rec.Kind != KindDispatch || rec.To == "-" || rec.To == "" {
			continue
		}
		if last != "" && rec.To != last {
			n++
		}
		last = rec.To
	}
	return n
}

func (t ref) markerTimes(label string) []sim.Time {
	var out []sim.Time
	for _, rec := range t.recs {
		if rec.Kind == KindMarker && rec.Label == label {
			out = append(out, rec.At)
		}
	}
	return out
}

func (t ref) latencies(from, to string) []sim.Time {
	if from == to {
		return nil
	}
	return latenciesOracle(t.recs, from, to)
}

func (t ref) responseTimes(task string) []sim.Time {
	var out []sim.Time
	var readyAt sim.Time
	ready := false
	for _, rec := range t.recs {
		if rec.Kind != KindTaskState || rec.Task != task {
			continue
		}
		switch {
		case rec.To == "ready" && !ready:
			readyAt, ready = rec.At, true
		case rec.To == "running" && ready:
			out = append(out, rec.At-readyAt)
			ready = false
		}
	}
	return out
}

func (t ref) summarize() []TaskSummary {
	var out []TaskSummary
	for _, task := range t.tasks() {
		ivs := t.execIntervals(task)
		resp := t.responseTimes(task)
		_, maxResp := MinMax(resp)
		s := TaskSummary{Task: task, Busy: t.busyTime(task), Segments: len(ivs),
			MeanResp: Mean(resp), MaxResp: maxResp}
		if t.end() > 0 {
			s.BusyPct = 100 * float64(s.Busy) / float64(t.end())
		}
		for _, rec := range t.recs {
			if rec.Kind == KindDispatch && rec.To == task {
				s.Dispatches++
			}
			if rec.Kind == KindTaskState && rec.Task == task && rec.From == "running" && rec.To == "ready" {
				s.Preemptions++
			}
		}
		out = append(out, s)
	}
	return out
}

func refDiff(a, b ref) []MarkerDiff {
	type key struct {
		label string
		arg   int64
	}
	var out []MarkerDiff
	seen := map[key]int{}
	for _, ra := range a.recs {
		if ra.Kind != KindMarker {
			continue
		}
		// The i-th occurrence of (label, arg) in a pairs with the i-th in b.
		nth := seen[key{ra.Label, ra.Arg}]
		seen[key{ra.Label, ra.Arg}]++
		for _, rb := range b.recs {
			if rb.Kind != KindMarker || rb.Label != ra.Label || rb.Arg != ra.Arg {
				continue
			}
			if nth > 0 {
				nth--
				continue
			}
			out = append(out, MarkerDiff{Label: ra.Label, Arg: ra.Arg, A: ra.At, B: rb.At, Delta: rb.At - ra.At})
			break
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.A != y.A {
			return x.A < y.A
		}
		if x.Label != y.Label {
			return x.Label < y.Label
		}
		if x.Arg != y.Arg {
			return x.Arg < y.Arg
		}
		return x.B < y.B
	})
	return out
}

func (t ref) eventList() string {
	var b strings.Builder
	for _, rec := range t.recs {
		b.WriteString(rec.String() + "\n")
	}
	return b.String()
}

func (t ref) csv() string {
	var b strings.Builder
	b.WriteString("at,kind,task,from,to,label,arg\n")
	for _, rec := range t.recs {
		fmt.Fprintf(&b, "%d,%s,%s,%s,%s,%s,%d\n", int64(rec.At), rec.Kind, rec.Task, rec.From, rec.To, rec.Label, rec.Arg)
	}
	return b.String()
}

func (t ref) report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %7s %6s %12s %12s %6s %6s\n",
		"task", "busy", "busy%", "segs", "meanResp", "maxResp", "disp", "preempt")
	for _, s := range t.summarize() {
		fmt.Fprintf(&b, "%-14s %12v %6.1f%% %6d %12v %12v %6d %6d\n",
			s.Task, s.Busy, s.BusyPct, s.Segments, s.MeanResp, s.MaxResp, s.Dispatches, s.Preemptions)
	}
	fmt.Fprintf(&b, "\nspan %v, context switches %d, records %d\n", t.end(), t.contextSwitches(), len(t.recs))
	return b.String()
}

// gantt renders the whole trace at width columns.
func (t ref) gantt(width int) string {
	to := t.end()
	if to <= 0 {
		return "(empty trace)\n"
	}
	tasks := t.tasks()
	nameW := 8
	for _, task := range tasks {
		nameW = max(nameW, len(task))
	}
	var b strings.Builder
	for _, task := range tasks {
		row := bytes.Repeat([]byte{'.'}, width)
		for _, iv := range t.execIntervals(task) {
			if iv.End <= 0 || iv.Start >= to {
				continue
			}
			lo, hi := int(iv.Start*sim.Time(width)/to), int(iv.End*sim.Time(width)/to)
			if hi == lo && hi < width {
				hi++
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, task, row)
	}
	fmt.Fprintf(&b, "%-*s  %v%s%v\n", nameW, "", sim.Time(0),
		strings.Repeat(" ", max(1, width-len(sim.Time(0).String())-len(to.String()))), to)
	return b.String()
}

func (t ref) vcd() string {
	tasks := t.tasks()
	irqSet := map[string]bool{}
	for _, rec := range t.recs {
		if rec.Kind == KindIRQ && rec.Label != "" {
			irqSet[rec.Label] = true
		}
	}
	var irqs []string
	for n := range irqSet {
		irqs = append(irqs, n)
	}
	sort.Strings(irqs)

	var b strings.Builder
	fmt.Fprintf(&b, "$timescale 1ns $end\n$scope module %s $end\n", ident(t.name))
	names := newIdentSet()
	for i, s := range append(append([]string(nil), tasks...), irqs...) {
		fmt.Fprintf(&b, "$var wire 1 %s %s $end\n", vcdID(i), names.unique(s))
	}
	b.WriteString("$upscope $end\n$enddefinitions $end\n")
	type change struct {
		at   sim.Time
		line string
	}
	var changes []change
	for i, task := range tasks {
		changes = append(changes, change{0, "0" + vcdID(i)})
		for _, iv := range t.execIntervals(task) {
			changes = append(changes, change{iv.Start, "1" + vcdID(i)}, change{iv.End, "0" + vcdID(i)})
		}
	}
	for i, irq := range irqs {
		c := vcdID(len(tasks) + i)
		changes = append(changes, change{0, "0" + c})
		for _, rec := range t.recs {
			if rec.Kind == KindIRQ && rec.Label == irq {
				v := "0"
				if rec.Arg == 1 {
					v = "1"
				}
				changes = append(changes, change{rec.At, v + c})
			}
		}
	}
	sort.SliceStable(changes, func(i, j int) bool { return changes[i].at < changes[j].at })
	last := sim.Time(-1)
	for _, c := range changes {
		if c.at != last {
			fmt.Fprintf(&b, "#%d\n", int64(c.at))
			last = c.at
		}
		b.WriteString(c.line + "\n")
	}
	return b.String()
}

func refWriteDiff(a, b ref) string {
	var s strings.Builder
	fmt.Fprintf(&s, "%-16s %6s %14s %14s %12s\n", "milestone", "arg", a.name, b.name, "delta")
	for _, d := range refDiff(a, b) {
		fmt.Fprintf(&s, "%-16s %6d %14v %14v %+12d\n", d.Label, d.Arg, d.A, d.B, int64(d.Delta))
	}
	return s.String()
}

// matchesRef checks every analysis and renderer of r against the
// reference want; other and otherRef are a second trace for the diffs.
func matchesRef(t *testing.T, r *Recorder, want ref, other *Recorder, otherRef ref) {
	t.Helper()
	check := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s differs:\n got %v\nwant %v", what, g, w)
		}
	}
	check("Len", r.Len(), len(want.recs))
	check("End", r.End(), want.end())
	check("Records", r.Records(), append([]Record(nil), want.recs...)) // nil when empty
	check("Tasks", r.Tasks(), want.tasks())
	check("ContextSwitches", r.ContextSwitches(), want.contextSwitches())
	check("Summarize", r.Summarize(), want.summarize())
	tasks := append(want.tasks(), "", "-", "absent")
	for _, task := range tasks {
		check("ExecIntervals("+task+")", r.ExecIntervals(task), want.execIntervals(task))
		check("ResponseTimes("+task+")", r.ResponseTimes(task), want.responseTimes(task))
		check("BusyTime("+task+")", r.BusyTime(task), want.busyTime(task))
		for _, b := range tasks {
			check("Overlap("+task+","+b+")", r.Overlap(task, b), want.overlap(task, b))
		}
	}
	labels := []string{"in", "out", "tick", "", "-", "irq0", "absent"}
	for _, from := range labels {
		check("MarkerTimes("+from+")", r.MarkerTimes(from), want.markerTimes(from))
		for _, to := range labels {
			check("Latencies("+from+","+to+")", r.Latencies(from, to), want.latencies(from, to))
		}
	}
	check("DiffMarkers", DiffMarkers(r, other), refDiff(want, otherRef))
	check("DiffMarkers(rev)", DiffMarkers(other, r), refDiff(otherRef, want))

	out := func(fn func(io.Writer) error) string {
		t.Helper()
		var b bytes.Buffer
		if err := fn(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, c := range []struct {
		name      string
		got, want string
	}{
		{"EventList", out(r.EventList), want.eventList()},
		{"CSV", out(r.CSV), want.csv()},
		{"Report", out(r.Report), want.report()},
		{"Gantt", out(func(w io.Writer) error { return r.Gantt(w, GanttOptions{Width: 40}) }), want.gantt(40)},
		{"VCD", out(r.VCD), want.vcd()},
		{"WriteMarkerDiff", out(func(w io.Writer) error { return WriteMarkerDiff(w, r, other) }), refWriteDiff(want, otherRef)},
		{"WriteMarkerDiff(rev)", out(func(w io.Writer) error { return WriteMarkerDiff(w, other, r) }), refWriteDiff(otherRef, want)},
	} {
		if c.got != c.want {
			t.Errorf("%s output differs:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}
}

// TestPagedRecorderMatchesSinglePage appends random streams of all six
// kinds to a recorder and checks every analysis and renderer against the
// same records held as one plain []Record, at record counts around the
// first page boundary and across many pages.
func TestPagedRecorderMatchesSinglePage(t *testing.T) {
	otherRecs := randomRecords(99, 300)
	other, otherRef := recorderOf("other", otherRecs), ref{"other", otherRecs}
	for _, n := range []int{0, 1, firstPage - 1, firstPage, firstPage + 1, 7*firstPage + 5, 3*maxPage + 17} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			recs := randomRecords(int64(n), n)
			matchesRef(t, recorderOf("paged", recs), ref{"paged", recs}, other, otherRef)
		})
	}
}

// TestAppendNeverMovesStoredRecords: a stored record costs one 32-byte
// entry, allocated once, plus the unused tail of the last page. A
// recorder that copied its records as it grew, or stored string headers
// per record, allocates about twice that.
func TestAppendNeverMovesStoredRecords(t *testing.T) {
	const n = 5 * maxPage
	recs := randomRecords(7, n)
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	// The runtime can allocate for itself while the recorder fills (a GC
	// cycle starting under load), so the cheapest of three fills counts.
	var r *Recorder
	got := ^uint64(0)
	for range 3 {
		runtime.GC()
		before := allocated()
		r = recorderOf("r", recs)
		got = min(got, allocated()-before)
	}
	if limit := uint64((n+maxPage)*32 + 4096); got > limit {
		t.Errorf("appending %d records allocated %d bytes, want at most %d (32 per record and a page)", n, got, limit)
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
}

// TestAppendAfterRecords: appending after Records() keeps every record in
// append order.
func TestAppendAfterRecords(t *testing.T) {
	for _, before := range []int{0, 1, firstPage, firstPage + 1, 500} {
		for _, after := range []int{1, firstPage, 2000} {
			recs := randomRecords(int64(before*10000+after), before+after)
			r := recorderOf("r", recs[:before])
			r.Records()
			for _, rec := range recs[before:] {
				r.Append(rec)
			}
			if got := r.Records(); !reflect.DeepEqual(got, recs) {
				t.Errorf("before=%d after=%d: records out of order or lost", before, after)
			}
			if r.Len() != len(recs) || r.End() != recs[len(recs)-1].At {
				t.Errorf("before=%d after=%d: Len/End = %d/%v, want %d/%v",
					before, after, r.Len(), r.End(), len(recs), recs[len(recs)-1].At)
			}
		}
	}
}

// TestRecordsReturnsFreshSlice: Records hands out a new slice on every
// call, so a caller that writes into it leaves the trace as it was.
func TestRecordsReturnsFreshSlice(t *testing.T) {
	r := New("r")
	r.Append(Record{At: 0, Kind: KindDispatch, From: "-", To: "A"})
	r.Marker(5, "in", "A", 1)
	r.Append(Record{At: 10, Kind: KindDispatch, From: "A", To: "B"})
	r.Marker(15, "out", "B", 1)
	r.Append(Record{At: 20, Kind: KindDispatch, From: "B", To: "A"})
	csv := func() string {
		var b bytes.Buffer
		if err := r.CSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	lat, cs, text := r.Latencies("in", "out"), r.ContextSwitches(), csv()

	recs := r.Records()
	for i := range recs {
		recs[i] = Record{At: 99, Kind: KindDispatch, From: "X", To: fmt.Sprint(i)}
	}
	if again := r.Records(); &again[0] == &recs[0] {
		t.Error("two Records() calls returned the same backing array")
	}
	if got := r.Latencies("in", "out"); !reflect.DeepEqual(got, lat) {
		t.Errorf("Latencies after writing into Records() = %v, want %v", got, lat)
	}
	if got := r.ContextSwitches(); got != cs {
		t.Errorf("ContextSwitches after writing into Records() = %d, want %d", got, cs)
	}
	if got := csv(); got != text {
		t.Errorf("CSV after writing into Records():\n%s\nwant\n%s", got, text)
	}
}

// refObserver records scheduler callbacks as plain Records, naming tasks
// by their *core.Task: the reference for a recorder fed by the telemetry
// stream.
type refObserver struct{ recs *[]Record }

func (o refObserver) OnTaskState(at sim.Time, t *core.Task, old, new core.TaskState) {
	*o.recs = append(*o.recs, Record{At: at, Kind: KindTaskState, Task: t.Name(), From: old.String(), To: new.String()})
}

func (o refObserver) OnDispatch(at sim.Time, cpu int, prev, next *core.Task) {
	name := func(t *core.Task) string {
		if t == nil {
			return "-"
		}
		return t.Name()
	}
	*o.recs = append(*o.recs, Record{At: at, Kind: KindDispatch, From: name(prev), To: name(next)})
}

func (o refObserver) OnIRQ(at sim.Time, name string, enter bool) {
	arg := int64(0)
	if enter {
		arg = 1
	}
	*o.recs = append(*o.recs, Record{At: at, Kind: KindIRQ, Label: name, Arg: arg})
}

// TestAttachTwoSchedsOverlappingIDs attaches two schedulers, whose tasks
// both number from 0, to one bus over a recorder: each record must carry
// the name of its own scheduler's task.
func TestAttachTwoSchedsOverlappingIDs(t *testing.T) {
	k := sim.NewKernel()
	r := New("two-pe")
	bus := telemetry.NewBus(r)
	var want []Record
	for pe, names := range [][]string{{"a0", "a1", "a2"}, {"b0", "b1"}} {
		os := core.New(k, fmt.Sprint("PE", pe), core.PriorityPolicy{})
		telemetry.Attach(os, bus)
		os.Observe(refObserver{&want})
		for i, name := range names {
			task := os.TaskCreate(name, core.Aperiodic, 0, 0, i+1)
			if task.ID() != i {
				t.Fatalf("task %s has ID %d, want %d", name, task.ID(), i)
			}
			d := sim.Time(10 * (pe + i + 1))
			k.Spawn(name, func(p *sim.Proc) {
				os.TaskActivate(p, task)
				os.TimeWait(p, d)
				os.TaskTerminate(p)
			})
		}
		k.Spawn(fmt.Sprint("irq", pe), func(p *sim.Proc) {
			p.WaitFor(15)
			os.InterruptEnter(p, "irq")
			os.InterruptReturn(p, "irq")
		})
		os.Start(nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the schedulers reported nothing")
	}
	matchesRef(t, r, ref{"two-pe", want}, r, ref{"two-pe", want})
}

// TestAttachSurvivesInit: core.OS.Init discards the tasks and numbers the
// next ones from 0 again; a recorder on a bus attached before it must
// name the new tasks, not the old ones that had their IDs.
func TestAttachSurvivesInit(t *testing.T) {
	k := sim.NewKernel()
	os := core.New(k, "PE", core.PriorityPolicy{})
	r := New("reinit")
	telemetry.Attach(os, telemetry.NewBus(r))
	var want []Record
	os.Observe(refObserver{&want})
	run := func(name string) {
		task := os.TaskCreate(name, core.Aperiodic, 0, 0, 1)
		if task.ID() != 0 {
			t.Fatalf("task %s has ID %d, want 0", name, task.ID())
		}
		k.Spawn(name, func(p *sim.Proc) {
			os.TaskActivate(p, task)
			os.TimeWait(p, 10)
			os.TaskTerminate(p)
		})
		os.Start(nil)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run("x")
	os.Init()
	run("y")
	var sawY bool
	for _, rec := range want {
		sawY = sawY || rec.Task == "y" || rec.To == "y"
	}
	if !sawY {
		t.Fatal("the scheduler never reported task y")
	}
	matchesRef(t, r, ref{"reinit", want}, r, ref{"reinit", want})
}

// TestManyDistinctLabels: 100,000 distinct marker labels keep Append and
// the readers cheap; a table scanned linearly would take minutes.
func TestManyDistinctLabels(t *testing.T) {
	const n = 100_000
	labels := make([]string, n+1)
	for i := range labels {
		labels[i] = fmt.Sprint("m", i)
	}
	start := time.Now()
	r := New("many")
	for i := 0; i < n; i++ {
		r.Marker(sim.Time(i), labels[i], "T", int64(i))
	}
	for i := 0; i < n; i += n / 10 {
		if got := r.MarkerTimes(labels[i]); len(got) != 1 || got[0] != sim.Time(i) {
			t.Fatalf("MarkerTimes(%s) = %v, want [%d]", labels[i], got, i)
		}
		if got := r.Latencies(labels[i], labels[i+1]); got != nil {
			t.Fatalf("Latencies(%s, next) = %v, want none (args differ)", labels[i], got)
		}
	}
	recs := r.Records()
	if len(recs) != n || recs[n-1].Label != labels[n-1] || recs[n-1].Task != "T" {
		t.Fatalf("Records() = %d records ending %v", len(recs), recs[len(recs)-1])
	}
	d := time.Since(start)
	t.Logf("%d distinct labels: %v", n, d)
	if d > time.Second {
		t.Errorf("100,000 distinct labels took %v, want under 1s", d)
	}
}

// latenciesOracle is the original nested-map Latencies, kept as the
// reference for the two-pass version.
func latenciesOracle(recs []Record, from, to string) []sim.Time {
	type pending struct {
		arg int64
		at  sim.Time
	}
	var starts []pending
	ends := map[int64][]sim.Time{} // arg -> to-marker times in record order
	seen := map[int64]bool{}
	for _, rec := range recs {
		if rec.Kind != KindMarker {
			continue
		}
		switch rec.Label {
		case from:
			if !seen[rec.Arg] { // first from-marker per arg wins
				seen[rec.Arg] = true
				starts = append(starts, pending{rec.Arg, rec.At})
			}
		case to:
			ends[rec.Arg] = append(ends[rec.Arg], rec.At)
		}
	}
	var out []sim.Time
	for _, p := range starts {
		for _, at := range ends[p.arg] {
			if at >= p.at {
				out = append(out, at-p.at)
				break
			}
		}
	}
	return out
}

// TestLatenciesMatchesOracle compares Latencies with the original
// algorithm on random marker sequences: duplicate from-markers,
// unmatched markers on both sides, timestamps that go backwards, to
// before from at the same instant, same-label IRQ records that must be
// ignored, and from == to.
func TestLatenciesMatchesOracle(t *testing.T) {
	// Hand-made edge case: the to-marker is recorded before its
	// from-marker at the same timestamp, so it still closes it.
	r := New("r")
	r.Marker(5, "out", "", 1)
	r.Marker(5, "in", "", 1)
	if got, want := r.Latencies("in", "out"), latenciesOracle(r.Records(), "in", "out"); !reflect.DeepEqual(got, want) || len(got) != 1 {
		t.Fatalf("to-before-from at one instant: got %v, want %v (one match)", got, want)
	}

	labels := []string{"in", "out", "x"}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3 * firstPage)
		args := 1 + rng.Intn(10)
		r := New("r")
		var recs []Record
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			if seed%2 == 0 {
				at += sim.Time(rng.Intn(3)) // monotone, with ties
			} else {
				at = sim.Time(rng.Intn(50)) // arbitrary order
			}
			kind := KindMarker
			if rng.Intn(8) == 0 {
				kind = KindIRQ
			}
			rec := Record{At: at, Kind: kind, Label: labels[rng.Intn(len(labels))], Arg: int64(rng.Intn(args))}
			r.Append(rec)
			recs = append(recs, rec)
		}
		for _, from := range labels {
			for _, to := range labels {
				got := r.Latencies(from, to)
				want := latenciesOracle(recs, from, to)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d Latencies(%q, %q) = %v, want %v", seed, from, to, got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("seed %d: output has cap %d for %d latencies, want exact size", seed, cap(got), len(got))
				}
			}
		}
	}
}
