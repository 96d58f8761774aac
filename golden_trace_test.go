// Golden-trace regression suite: the canonical telemetry event streams
// of the two example designs (examples/figure3, examples/vocoder) are
// pinned byte-for-byte under testdata/golden/. Any change to scheduling
// order, observer hook placement, or the Event.String format shows up as
// a golden diff.
//
// Regenerate intentionally with:
//
//	go test -run TestGoldenTrace -update
package repro

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/runner"
	"repro/internal/sdl"
	"repro/internal/telemetry"
	"repro/internal/vocoder"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files under testdata/golden")

// renderTrace turns an event stream into the canonical line format.
func renderTrace(events []telemetry.Event) []byte {
	var sb strings.Builder
	for _, e := range events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// figure3Trace simulates the paper's Figure 3 design (architecture
// model, priority policy, coarse time — the examples/figure3 default)
// and returns its canonical trace.
func figure3Trace(t *testing.T) []byte {
	t.Helper()
	m, err := sdl.Load("figure3")
	if err != nil {
		t.Fatal(err)
	}
	col := &telemetry.Collector{}
	bus := telemetry.NewBus(col)
	if _, _, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse, bus); err != nil {
		t.Fatalf("figure3 architecture run: %v", err)
	}
	return renderTrace(col.Events)
}

// vocoderTrace simulates the vocoder architecture model with the small
// parameter set (8 frames keeps the golden file reviewable) and returns
// its canonical trace.
func vocoderTrace(t *testing.T) []byte {
	t.Helper()
	col := &telemetry.Collector{}
	bus := telemetry.NewBus(col)
	_, _, err := vocoder.RunArch(vocoder.Small(), core.PriorityPolicy{},
		core.TimeModelCoarse, bus)
	if err != nil {
		t.Fatalf("vocoder architecture run: %v", err)
	}
	return renderTrace(col.Events)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d lines)", path, bytes.Count(got, []byte("\n")))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run: go test -run TestGoldenTrace -update): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Report the first differing line, which localizes scheduling drift
	// far better than a byte offset.
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first difference at line %d:\n  got:  %s\n  want: %s\n(%d vs %d lines; regenerate intentionally with -update)",
				path, i+1, gl[i], wl[i], len(gl)-1, len(wl)-1)
		}
	}
	t.Fatalf("%s: traces diverge in length: %d vs %d lines (regenerate intentionally with -update)",
		path, len(gl)-1, len(wl)-1)
}

func TestGoldenTraceFigure3(t *testing.T) {
	checkGolden(t, "figure3.trace", figure3Trace(t))
}

func TestGoldenTraceVocoder(t *testing.T) {
	checkGolden(t, "vocoder.trace", vocoderTrace(t))
}

// vocoderPersonalityTrace simulates the vocoder architecture model under
// the given RTOS personality and returns its canonical trace.
func vocoderPersonalityTrace(t *testing.T, kind string) []byte {
	t.Helper()
	col := &telemetry.Collector{}
	bus := telemetry.NewBus(col)
	_, _, err := vocoder.RunArchPersonality(vocoder.Small(), core.PriorityPolicy{},
		core.TimeModelCoarse, kind, bus)
	if err != nil {
		t.Fatalf("vocoder %s run: %v", kind, err)
	}
	return renderTrace(col.Events)
}

// TestGoldenTraceVocoderPersonalities pins one vocoder run per RTOS
// personality. The generic run must be byte-identical to the existing
// vocoder.trace golden (the personality layer is a transparent
// passthrough for the paper model); the itron and osek runs get their
// own goldens, so any drift in a native kernel's grant order or wakeup
// bookkeeping shows up as a reviewable diff.
func TestGoldenTraceVocoderPersonalities(t *testing.T) {
	for _, kind := range personality.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			got := vocoderPersonalityTrace(t, kind)
			if kind == personality.Generic {
				// Same bytes as the default-path golden: no separate file.
				checkGolden(t, "vocoder.trace", got)
				return
			}
			checkGolden(t, "vocoder_"+kind+".trace", got)
		})
	}
}

// TestGoldenTraceParallelDeterminism reruns both example simulations
// under the batch-run engine at -jobs 1 and -jobs 8 and requires every
// repetition to be byte-identical to the golden file: concurrency in the
// harness must never leak into simulation behavior.
func TestGoldenTraceParallelDeterminism(t *testing.T) {
	if *updateGolden {
		t.Skip("skipped while updating goldens")
	}
	const reps = 8
	run := func(name string, gen func(*testing.T) []byte, jobs int) {
		results := runner.Map(reps, runner.Options{Jobs: jobs}, func(i int) ([]byte, error) {
			return gen(t), nil
		})
		traces, err := runner.Values(results)
		if err != nil {
			t.Fatalf("%s jobs=%d: %v", name, jobs, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range traces {
			if !bytes.Equal(tr, want) {
				t.Fatalf("%s: repetition %d at jobs=%d differs from golden", name, i, jobs)
			}
		}
	}
	for _, jobs := range []int{1, 8} {
		run("figure3.trace", figure3Trace, jobs)
		run("vocoder.trace", vocoderTrace, jobs)
	}
}
