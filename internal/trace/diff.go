package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// MarkerDiff compares the instrumentation milestones of two traces —
// typically the unscheduled specification model against the refined
// architecture model — pairing markers by (label, arg). It reports, per
// milestone, when each model reached it and the drift introduced by
// serialization and scheduling. Milestones present in only one trace are
// skipped.
type MarkerDiff struct {
	Label string
	Arg   int64
	A, B  sim.Time
	Delta sim.Time // B - A
}

// DiffMarkers computes the milestone comparison between two traces, in
// order of A's timestamps, then label, arg and B's timestamps. For
// repeated (label, arg) pairs, occurrences are matched positionally.
func DiffMarkers(a, b *Recorder) []MarkerDiff {
	type key struct {
		label sym // in the collected recorder's string table
		arg   int64
	}
	collect := func(r *Recorder) map[key][]sim.Time {
		m := map[key][]sim.Time{}
		for _, pg := range r.pages {
			for i := range pg {
				if e := &pg[i]; e.kind() == KindMarker {
					k := key{e.label(), e.arg}
					m[k] = append(m[k], e.at)
				}
			}
		}
		return m
	}
	ma, mb := collect(a), collect(b)
	var out []MarkerDiff
	for k, atimes := range ma {
		label := a.str(k.label)
		btimes, ok := mb[key{b.lookup(label), k.arg}]
		if !ok {
			continue
		}
		n := len(atimes)
		if len(btimes) < n {
			n = len(btimes)
		}
		for i := 0; i < n; i++ {
			out = append(out, MarkerDiff{
				Label: label, Arg: k.arg,
				A: atimes[i], B: btimes[i], Delta: btimes[i] - atimes[i],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		// Ties past (A, Label) would otherwise follow map order.
		if out[i].Arg != out[j].Arg {
			return out[i].Arg < out[j].Arg
		}
		return out[i].B < out[j].B
	})
	return out
}

// WriteMarkerDiff renders the comparison as a table with the two trace
// names as column headers.
func WriteMarkerDiff(w io.Writer, a, b *Recorder) error {
	diffs := DiffMarkers(a, b)
	if _, err := fmt.Fprintf(w, "%-16s %6s %14s %14s %12s\n",
		"milestone", "arg", a.Name(), b.Name(), "delta"); err != nil {
		return err
	}
	for _, d := range diffs {
		if _, err := fmt.Fprintf(w, "%-16s %6d %14v %14v %+12d\n",
			d.Label, d.Arg, d.A, d.B, int64(d.Delta)); err != nil {
			return err
		}
	}
	return nil
}
