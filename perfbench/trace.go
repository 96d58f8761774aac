package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one op share Op; Parent is the index of the enclosing
// span (-1 for an op's root or a probe).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work,omitempty"` // layer-specific count: modeled switches, allocations
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how untraced runs pay only a nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// work attaches a layer-specific count to a span.
func (t *tracer) work(id int, n int64) {
	if t != nil {
		t.spans[id].Work = n
	}
}

// add records an already-measured span (probes timed around a batch).
func (t *tracer) add(name string, op int, d time.Duration, work int64) {
	if t != nil {
		end := int64(time.Since(t.epoch))
		t.spans = append(t.spans, span{Name: name, Op: op, Parent: -1, Start: end - int64(d), End: end, Work: work})
	}
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanStats indexes recorded spans by name for the per-layer metrics.
type spanStats struct {
	byName map[string][]span
}

func (t *tracer) stats() spanStats {
	s := spanStats{byName: map[string][]span{}}
	if t != nil {
		for _, sp := range t.spans {
			s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		}
	}
	return s
}

// medianDur is the median duration of the spans named name, in unit.
func (s spanStats) medianDur(name string, unit time.Duration) float64 {
	sps := s.byName[name]
	if len(sps) == 0 {
		return 0
	}
	d := make([]float64, len(sps))
	for i, sp := range sps {
		d[i] = float64(sp.dur()) / float64(unit)
	}
	return median(d)
}

// perOpMedian sums the durations of the spans named name within each op
// and returns the median of those per-op sums, in unit.
func (s spanStats) perOpMedian(name string, unit time.Duration) float64 {
	sum := map[int]time.Duration{}
	for _, sp := range s.byName[name] {
		sum[sp.Op] += sp.dur()
	}
	if len(sum) == 0 {
		return 0
	}
	d := make([]float64, 0, len(sum))
	for _, v := range sum {
		d = append(d, float64(v)/float64(unit))
	}
	return median(d)
}

// total returns the summed duration and work of the spans named name.
func (s spanStats) total(name string) (time.Duration, int64) {
	var d time.Duration
	var w int64
	for _, sp := range s.byName[name] {
		d += sp.dur()
		w += sp.Work
	}
	return d, w
}

// medianWork is the median Work count of the spans named name.
func (s spanStats) medianWork(name string) float64 {
	sps := s.byName[name]
	if len(sps) == 0 {
		return 0
	}
	w := make([]float64, len(sps))
	for i, sp := range sps {
		w[i] = float64(sp.Work)
	}
	return median(w)
}

// uncoveredFrac is the share of the op root spans' time that none of
// their direct children covers.
func (t *tracer) uncoveredFrac() float64 {
	if t == nil {
		return 0
	}
	covered := map[int]time.Duration{}
	for _, sp := range t.spans {
		if sp.Parent >= 0 && t.spans[sp.Parent].Name == "op" {
			covered[sp.Parent] += sp.dur()
		}
	}
	var root, cov time.Duration
	for i, sp := range t.spans {
		if sp.Name == "op" {
			root += sp.dur()
			cov += covered[i]
		}
	}
	if root == 0 {
		return 0
	}
	return 1 - float64(cov)/float64(root)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v, interpolating linearly between
// the two nearest ranks; v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}
