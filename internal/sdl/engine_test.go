package sdl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The rtc engine must reproduce the goroutine architecture model byte for
// byte on SDL models: hierarchical seq/par behaviors, handshakes, markers
// and the split stimulus/ISR interrupt path. These tests extend the
// engine-equivalence gate (internal/simcheck pins flat task sets; here
// the full SDL corpus) and pin golden traces for the example models.

// sdlCorpus lists the models under test: the built-in figure3 (the
// paper's running example) and jpeg (the JPEG encoder's software
// mapping), the vocoder twin, and the bus-driver handshake example.
func sdlCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := map[string]string{}
	for _, path := range []string{"models/figure3.sdl", "models/jpeg.sdl"} {
		src, err := builtin.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corpus[strings.TrimSuffix(filepath.Base(path), ".sdl")] = string(src)
	}
	for _, name := range []string{"vocoder", "busdriver"} {
		src, err := os.ReadFile(filepath.Join("testdata", name+".sdl"))
		if err != nil {
			t.Fatal(err)
		}
		corpus[name] = string(src)
	}
	return corpus
}

// renderArch renders an architecture run to its canonical byte form —
// the record stream plus the final counters and end time (the same shape
// simcheck's serializeSingle pins for flat workloads).
func renderArch(recs []trace.Record, stats core.Stats, end sim.Time) []byte {
	var b bytes.Buffer
	for _, r := range recs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "stats %+v end %v\n", stats, end)
	return b.Bytes()
}

// runGoroutine runs the goroutine architecture model and renders it.
func runGoroutine(t *testing.T, m *Model, policy string, quantum sim.Time, tm core.TimeModel, bus *telemetry.Bus) []byte {
	t.Helper()
	pol, err := core.PolicyByName(policy, quantum)
	if err != nil {
		t.Fatal(err)
	}
	rec, osi, err := m.RunArchitecture(pol, tm, bus)
	if err != nil {
		t.Fatalf("goroutine run: %v", err)
	}
	return renderArch(rec.Records(), osi.StatsSnapshot(), osi.Kernel().Now())
}

// runRTC runs the same model on the run-to-completion engine.
func runRTC(t *testing.T, m *Model, policy string, quantum sim.Time, tm core.TimeModel, bus *telemetry.Bus) []byte {
	t.Helper()
	res, err := m.RunArchitectureRTC(policy, quantum, tm, sim.Time(1)*sim.Second, bus)
	if err != nil {
		t.Fatalf("rtc run: %v", err)
	}
	return renderArch(res.Trace.Records(), res.Stats, res.End)
}

// runEngines runs the model on both engines, each with a telemetry bus,
// fails the test unless the two buses received the same event stream,
// and returns the goroutine and rtc renderings.
func runEngines(t *testing.T, m *Model, policy string, quantum sim.Time, tm core.TimeModel) (g, r []byte) {
	t.Helper()
	var gc, rc telemetry.Collector
	g = runGoroutine(t, m, policy, quantum, tm, telemetry.NewBus(&gc))
	r = runRTC(t, m, policy, quantum, tm, telemetry.NewBus(&rc))
	ge, re := gc.Events, rc.Events
	if len(ge) == 0 {
		t.Fatal("goroutine run fed the bus no events")
	}
	for i := range min(len(ge), len(re)) {
		if ge[i] != re[i] {
			t.Fatalf("telemetry streams diverge at event %d:\n  goroutine: %s\n  rtc:       %s", i, ge[i], re[i])
		}
	}
	if len(ge) != len(re) {
		t.Fatalf("telemetry streams: goroutine %d events, rtc %d", len(ge), len(re))
	}
	return g, r
}

func firstDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  goroutine: %s\n  rtc:       %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length: goroutine %d lines, rtc %d lines", len(al), len(bl))
}

// TestEngineEquivalenceSDL drives every corpus model through both engines
// across the scheduling-policy and time-model matrix and requires
// byte-identical traces, stats and end times, and the same telemetry
// stream.
func TestEngineEquivalenceSDL(t *testing.T) {
	configs := []struct {
		policy  string
		quantum sim.Time
		tm      core.TimeModel
	}{
		{"priority", 0, core.TimeModelCoarse},
		{"priority", 0, core.TimeModelSegmented},
		{"fcfs", 0, core.TimeModelCoarse},
		{"rr", 20 * sim.Microsecond, core.TimeModelCoarse},
		{"edf", 0, core.TimeModelCoarse},
		{"edf", 0, core.TimeModelSegmented},
	}
	for name, src := range sdlCorpus(t) {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/%s/%v", name, cfg.policy, cfg.tm), func(t *testing.T) {
				m, err := Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				g, r := runEngines(t, m, cfg.policy, cfg.quantum, cfg.tm)
				if !bytes.Equal(g, r) {
					t.Fatalf("engines diverge on %s (%s, %v):\n%s", name, cfg.policy, cfg.tm, firstDiff(g, r))
				}
			})
		}
	}
}

// TestEngineEquivalenceSDLPersonalities repeats the comparison under the
// ITRON and OSEK personalities, whose native channel kinds replace the
// generic queue/semaphore ports.
func TestEngineEquivalenceSDLPersonalities(t *testing.T) {
	for name, src := range sdlCorpus(t) {
		for _, pers := range []string{"itron", "osek"} {
			t.Run(name+"/"+pers, func(t *testing.T) {
				m, err := Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				m.Personality = pers
				if err := m.Validate(); err != nil {
					t.Fatal(err)
				}
				g, r := runEngines(t, m, "priority", 0, core.TimeModelCoarse)
				if !bytes.Equal(g, r) {
					t.Fatalf("engines diverge on %s/%s:\n%s", name, pers, firstDiff(g, r))
				}
			})
		}
	}
}

// TestGoldenTracesSDL pins the default-configuration (priority, coarse)
// architecture trace of every corpus model, rendered identically by both
// engines. Regenerate with -update after an intentional semantic change.
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestGoldenTracesSDL(t *testing.T) {
	for name, src := range sdlCorpus(t) {
		t.Run(name, func(t *testing.T) {
			m, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			g, r := runEngines(t, m, "priority", 0, core.TimeModelCoarse)
			if !bytes.Equal(g, r) {
				t.Fatalf("engines diverge on %s:\n%s", name, firstDiff(g, r))
			}
			golden := filepath.Join("testdata", "golden", name+".arch.trace")
			if update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, g, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden trace missing (run with UPDATE_GOLDEN=1 to record): %v", err)
			}
			if !bytes.Equal(g, want) {
				t.Fatalf("trace deviates from golden %s:\n%s", golden, firstDiff(want, g))
			}
		})
	}
}

// TestRTCWorkloadRejectsMultiPE pins the single-PE restriction.
func TestRTCWorkloadRejectsMultiPE(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "pipeline2pe.sdl"))
	if err != nil {
		t.Skipf("no multi-PE fixture: %v", err)
	}
	m, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RTCWorkload("priority", 0, core.TimeModelCoarse, sim.Second); err == nil {
		t.Fatal("RTCWorkload accepted a multi-PE model")
	}
}

// TestEngineEquivalenceSemaphoreOverflow pins one rule for an ITRON
// sig_sem past TMAX_SEMCNT: an interrupt releasing a semaphore declared at
// the maximum count ends the run with E_QOVR on both engines, with the
// same error and the same trace up to it.
func TestEngineEquivalenceSemaphoreOverflow(t *testing.T) {
	const src = `
channel s semaphore 1073741824
behavior main { delay 100us }
top main
irq i at 10us releases s
personality itron
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.PolicyByName("priority", 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, osi, gerr := m.RunArchitecture(pol, core.TimeModelCoarse)
	res, rerr := m.RunArchitectureRTC("priority", 0, core.TimeModelCoarse, sim.Second)
	const want = `itron: sig_sem "s": E_QOVR`
	if gerr == nil || rerr == nil || gerr.Error() != want || rerr.Error() != want {
		t.Fatalf("goroutine error %v, rtc error %v; want %q from both", gerr, rerr, want)
	}
	g := renderArch(rec.Records(), osi.StatsSnapshot(), osi.Kernel().Now())
	r := renderArch(res.Trace.Records(), res.Stats, res.End)
	if !bytes.Equal(g, r) {
		t.Fatalf("engines diverge up to the overflow:\n%s", firstDiff(g, r))
	}
}
