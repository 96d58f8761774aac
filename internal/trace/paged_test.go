package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// randomRecords builds a seeded record sequence that touches every
// reader: task state changes, dispatches, IRQs, markers and execution
// segments over a few tasks, with non-decreasing timestamps.
func randomRecords(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	tasks := []string{"A", "B", "C"}
	states := []string{"ready", "running", "delay", "wait"}
	labels := []string{"in", "out", "tick"}
	recs := make([]Record, 0, n)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Intn(3))
		task := tasks[rng.Intn(len(tasks))]
		var rec Record
		switch rng.Intn(6) {
		case 0:
			rec = Record{At: at, Kind: KindTaskState, Task: task,
				From: states[rng.Intn(len(states))], To: states[rng.Intn(len(states))]}
		case 1:
			to := task
			if rng.Intn(5) == 0 {
				to = "-"
			}
			rec = Record{At: at, Kind: KindDispatch, From: tasks[rng.Intn(len(tasks))], To: to}
		case 2:
			rec = Record{At: at, Kind: KindIRQ, Label: "irq" + fmt.Sprint(rng.Intn(2)), Arg: int64(rng.Intn(2))}
		case 3:
			rec = Record{At: at, Kind: KindMarker, Task: task,
				Label: labels[rng.Intn(len(labels))], Arg: int64(rng.Intn(8))}
		case 4:
			rec = Record{At: at, Kind: KindSegBegin, Task: task}
		default:
			rec = Record{At: at, Kind: KindSegEnd, Task: task}
		}
		recs = append(recs, rec)
	}
	return recs
}

// singlePage returns a recorder holding recs as one page: the layout the
// readers had before paging, used as the reference.
func singlePage(name string, recs []Record) *Recorder {
	r := New(name)
	if len(recs) > 0 {
		r.pages = [][]Record{append([]Record(nil), recs...)}
		r.n, r.end = len(recs), recs[len(recs)-1].At
	}
	return r
}

// render collects the output of every writer-based reader.
func render(t *testing.T, r, other *Recorder) map[string]string {
	t.Helper()
	out := map[string]string{}
	write := func(name string, fn func(*bytes.Buffer) error) {
		var b bytes.Buffer
		if err := fn(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b.String()
	}
	write("gantt", func(b *bytes.Buffer) error { return r.Gantt(b, GanttOptions{Width: 40}) })
	write("events", func(b *bytes.Buffer) error { return r.EventList(b) })
	write("csv", func(b *bytes.Buffer) error { return r.CSV(b) })
	write("report", func(b *bytes.Buffer) error { return r.Report(b) })
	write("vcd", func(b *bytes.Buffer) error { return r.VCD(b) })
	write("diff", func(b *bytes.Buffer) error { return WriteMarkerDiff(b, r, other) })
	write("diff-rev", func(b *bytes.Buffer) error { return WriteMarkerDiff(b, other, r) })
	return out
}

// TestPagedRecorderMatchesSinglePage appends the same records to a
// recorder and compares every reader against a single-page reference, at
// record counts around the first page boundary and across many pages.
func TestPagedRecorderMatchesSinglePage(t *testing.T) {
	other := singlePage("other", randomRecords(99, 300))
	counts := []int{0, 1, firstPage - 1, firstPage, firstPage + 1,
		7*firstPage + 5, 3*maxPage + 17}
	for _, n := range counts {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			recs := randomRecords(int64(n), n)
			got := New("paged")
			for _, rec := range recs {
				got.Append(rec)
			}
			want := singlePage("paged", recs)
			if n > firstPage && len(got.pages) < 2 {
				t.Fatalf("%d records in %d page(s); the case does not exercise paging", n, len(got.pages))
			}

			if got.Len() != want.Len() || got.End() != want.End() {
				t.Errorf("Len/End = %d/%v, want %d/%v", got.Len(), got.End(), want.Len(), want.End())
			}
			check := func(what string, g, w any) {
				t.Helper()
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%s differs:\n got %v\nwant %v", what, g, w)
				}
			}
			check("Tasks", got.Tasks(), want.Tasks())
			check("ContextSwitches", got.ContextSwitches(), want.ContextSwitches())
			check("Summarize", got.Summarize(), want.Summarize())
			for _, task := range append(want.Tasks(), "absent") {
				check("ExecIntervals("+task+")", got.ExecIntervals(task), want.ExecIntervals(task))
				check("ResponseTimes("+task+")", got.ResponseTimes(task), want.ResponseTimes(task))
				check("BusyTime("+task+")", got.BusyTime(task), want.BusyTime(task))
				for _, b := range want.Tasks() {
					check("Overlap("+task+","+b+")", got.Overlap(task, b), want.Overlap(task, b))
				}
			}
			for _, label := range []string{"in", "out", "tick"} {
				check("MarkerTimes("+label+")", got.MarkerTimes(label), want.MarkerTimes(label))
				for _, to := range []string{"in", "out", "tick"} {
					check("Latencies("+label+","+to+")", got.Latencies(label, to), want.Latencies(label, to))
				}
			}
			check("DiffMarkers", DiffMarkers(got, other), DiffMarkers(want, other))
			gr, wr := render(t, got, other), render(t, want, other)
			for name := range wr {
				if gr[name] != wr[name] {
					t.Errorf("%s output differs:\n got %q\nwant %q", name, gr[name], wr[name])
				}
			}

			// Records joins the pages last, so the readers above saw the
			// paged layout.
			all := got.Records()
			if n == 0 {
				if all != nil {
					t.Errorf("Records() of an empty recorder = %v, want nil", all)
				}
				return
			}
			check("Records", all, recs)
			if len(got.pages) != 1 {
				t.Errorf("Records() left %d pages, want the joined one", len(got.pages))
			}
			if again := got.Records(); &again[0] != &all[0] {
				t.Error("a second Records() call copied the records again")
			}
		})
	}
}

// TestAppendNeverMovesStoredRecords: Append must not copy a full page;
// the first record stays at the same address however long the trace
// grows.
func TestAppendNeverMovesStoredRecords(t *testing.T) {
	r := New("r")
	r.Append(Record{At: 0, Kind: KindMarker, Label: "first"})
	first := &r.pages[0][0]
	for i := 1; i < 5*maxPage; i++ {
		r.Append(Record{At: sim.Time(i), Kind: KindMarker})
	}
	if &r.pages[0][0] != first {
		t.Error("the first page moved while the trace grew")
	}
	size := firstPage
	for i, pg := range r.pages {
		if cap(pg) != size {
			t.Errorf("page %d holds %d records, want %d", i, cap(pg), size)
		}
		size = min(2*size, maxPage)
	}
}

// TestAppendAfterRecords: appending after Records() joined the pages
// keeps every record in append order.
func TestAppendAfterRecords(t *testing.T) {
	for _, before := range []int{0, 1, firstPage, firstPage + 1, 500} {
		for _, after := range []int{1, firstPage, 2000} {
			recs := randomRecords(int64(before*10000+after), before+after)
			r := New("r")
			for _, rec := range recs[:before] {
				r.Append(rec)
			}
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
