// Package perf is the kernel performance harness behind cmd/simbench: a
// fixed set of hot-path scenarios (context switches, raw kernel
// primitives, the scheduler matrix, large synthetic task sets, timer
// churn) measured with the standard testing.Benchmark machinery and
// reported as a machine-readable document (BENCH_kernel.json). A committed
// baseline plus Compare turn the document into a regression gate: ns/op
// within a tolerance, allocs/op never above baseline.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
)

// Schema identifies the BENCH_kernel.json document format.
const Schema = "bench-kernel/1"

// Result is one scenario's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SwitchesPerSec is the modeled context-switch throughput, reported by
	// scenarios that drive the RTOS dispatcher (0 elsewhere).
	SwitchesPerSec float64 `json:"context_switches_per_sec,omitempty"`
	Iterations     int     `json:"iterations"`
	// Extra carries any other per-scenario metrics a benchmark surfaced
	// with b.ReportMetric (the DSE suite's configs/s and cache hit rate).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the full benchmark document. GOMAXPROCS is the setting the
// scenarios ran at: the goroutine kernel's allocation counts depend on it
// (blocking channel operations draw sudogs from per-P runtime caches), so
// an exact alloc comparison is only meaningful at the same setting.
type Report struct {
	Schema     string   `json:"schema"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Scenarios  []Result `json:"scenarios"`
}

// switchesMetric is the b.ReportMetric key scenarios use to surface
// context-switch throughput into the Result.
const switchesMetric = "switches/s"

// CollectOnly runs the scenarios whose name keep accepts (nil keeps all)
// and returns the report. Each scenario is measured by testing.Benchmark
// (standard auto-scaling of b.N). Filtering happens before measurement, so a
// restricted run costs only the scenarios it reports.
func CollectOnly(keep func(name string) bool) Report {
	return collect(Schema, Scenarios(), keep)
}

// collect measures the given scenarios into a report with the given
// schema tag, shared by the kernel and DSE suites.
func collect(schema string, scns []Scenario, keep func(name string) bool) Report {
	rep := Report{Schema: schema, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, s := range scns {
		if keep != nil && !keep(s.Name) {
			continue
		}
		br := testing.Benchmark(s.Bench)
		res := Result{
			Name:        s.Name,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			BytesPerOp:  br.AllocedBytesPerOp(),
			AllocsPerOp: br.AllocsPerOp(),
			Iterations:  br.N,
		}
		for name, v := range br.Extra {
			if name == switchesMetric {
				res.SwitchesPerSec = v
				continue
			}
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[name] = v
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	sort.Slice(rep.Scenarios, func(i, j int) bool {
		return rep.Scenarios[i].Name < rep.Scenarios[j].Name
	})
	return rep
}

// Load reads a kernel-suite report from path.
func Load(path string) (Report, error) { return LoadAs(path, Schema) }

// LoadAs reads a report from path and verifies it carries the expected
// schema tag (Schema for the kernel suite, DSESchema for the DSE suite).
func LoadAs(path, schema string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("perf: parsing %s: %w", path, err)
	}
	if rep.Schema != schema {
		return Report{}, fmt.Errorf("perf: %s has schema %q, want %q", path, rep.Schema, schema)
	}
	return rep, nil
}

// Write stores the report at path (indented JSON, trailing newline).
func (r Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// find returns the named scenario result.
func (r Report) find(name string) (Result, bool) {
	for _, s := range r.Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Result{}, false
}

// Compare checks cur against base and returns one violation message per
// regression. Allocations are gated exactly — an allocs/op count above
// baseline is a regression regardless of tolerance, because allocation
// counts are deterministic. Time is gated within the relative tolerance
// (tol = 0.5 allows ns/op up to 1.5x baseline), absorbing host noise.
// Scenarios present in the baseline but missing from cur are violations;
// scenarios new in cur are ignored.
func Compare(cur, base Report, tol float64) []string {
	var violations []string
	for _, b := range base.Scenarios {
		c, ok := cur.find(b.Name)
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: scenario missing from current run", b.Name))
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op regressed: %d > baseline %d",
				b.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
		if limit := b.NsPerOp * (1 + tol); c.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: ns/op regressed: %.1f > %.1f (baseline %.1f +%.0f%%)",
				b.Name, c.NsPerOp, limit, b.NsPerOp, tol*100))
		}
	}
	return violations
}
