package sdl

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// figure3SDL is the paper's Figure 3 example written in the SDL frontend;
// semantics must match internal/models.BuildFigure3 with default
// parameters.
const figure3SDL = `
# The paper's Figure 3 example.
channel c1 queue 1
channel c2 queue 1
channel sem semaphore 0

behavior B1 { delay 100ns }
behavior B2 {
    delay 40ns
    marker c1-send 0
    send c1 1
    delay 120ns
    delay 70ns
    recv c2
    marker c2-recv 0
    delay 50ns
}
behavior B3 {
    delay 50ns
    recv c1
    marker c1-recv 0
    delay 80ns
    acquire sem
    marker ext-data 0
    delay 60ns
    marker c2-send 0
    send c2 2
    delay 40ns
}

compose workers par { B2 B3 }
compose main seq { B1 workers }
top main

irq irq0 at 280ns releases sem

task main priority 0
task B2 priority 2
task B3 priority 1
`

func TestParseFigure3(t *testing.T) {
	m, err := Parse(figure3SDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Channels) != 3 || len(m.Behaviors) != 3 || len(m.Composes) != 2 {
		t.Errorf("parsed %d channels, %d behaviors, %d composes",
			len(m.Channels), len(m.Behaviors), len(m.Composes))
	}
	if m.Top != "main" {
		t.Errorf("top = %q", m.Top)
	}
	if len(m.IRQs) != 1 || m.IRQs[0].At != 280 || m.IRQs[0].Releases != "sem" {
		t.Errorf("irq = %+v", m.IRQs)
	}
	if len(m.Tasks) != 3 {
		t.Errorf("tasks = %+v", m.Tasks)
	}
}

func TestFigure3SDLMatchesNativeModel(t *testing.T) {
	m, err := Parse(figure3SDL)
	if err != nil {
		t.Fatal(err)
	}
	// Unscheduled: same milestones as models.Figure3Unscheduled defaults.
	spec, err := m.RunUnscheduled()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		want  sim.Time
	}{{"c1-send", 140}, {"ext-data", 280}, {"c2-send", 340}} {
		ts := spec.MarkerTimes(c.label)
		if len(ts) != 1 || ts[0] != c.want {
			t.Errorf("spec %s at %v, want [%v]", c.label, ts, c.want)
		}
	}
	if spec.End() != 390 {
		t.Errorf("spec end = %v, want 390", spec.End())
	}

	// Architecture: the delayed preemption t4' = 390.
	arch, osm, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	if ts := arch.MarkerTimes("ext-data"); len(ts) != 1 || ts[0] != 390 {
		t.Errorf("arch ext-data at %v, want [390]", ts)
	}
	if arch.End() != 610 {
		t.Errorf("arch end = %v, want 610", arch.End())
	}
	if ov := arch.Overlap("B2", "B3"); ov != 0 {
		t.Errorf("arch overlap = %v, want 0", ov)
	}
	if osm.StatsSnapshot().ContextSwitches < 4 {
		t.Errorf("context switches = %d", osm.StatsSnapshot().ContextSwitches)
	}
}

func TestRepeatAndPeriodicIRQ(t *testing.T) {
	src := `
channel data semaphore 0
behavior worker {
    repeat 3 {
        acquire data
        delay 10us
        marker done 0
    }
}
compose main seq { worker }
top main
irq tick at 100us releases data every 100us count 3
task main priority 0
task worker priority 1
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.RunUnscheduled()
	if err != nil {
		t.Fatal(err)
	}
	ts := rec.MarkerTimes("done")
	if len(ts) != 3 {
		t.Fatalf("done markers = %v, want 3", ts)
	}
	want := []sim.Time{110 * sim.Microsecond, 210 * sim.Microsecond, 310 * sim.Microsecond}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("done[%d] at %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestHandshakeStatements(t *testing.T) {
	src := `
channel hs handshake
behavior a { delay 5ns signal hs }
behavior b { waitsig hs marker got 0 }
compose main par { a b }
top main
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.RunUnscheduled()
	if err != nil {
		t.Fatal(err)
	}
	if ts := rec.MarkerTimes("got"); len(ts) != 1 || ts[0] != 5 {
		t.Errorf("got at %v, want [5]", ts)
	}
}

func TestParseTime(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{"7", 7}, {"100ns", 100}, {"20us", 20 * sim.Microsecond},
		{"5ms", 5 * sim.Millisecond}, {"1s", sim.Second},
	}
	for _, c := range cases {
		got, err := ParseTime(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseTime(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseTime("fast"); err == nil {
		t.Error("bad time accepted")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"no-top", `behavior a { delay 1 }`, "no top"},
		{"unknown-stmt", `behavior a { frob 1 } top a`, "unknown statement"},
		{"bad-channel-kind", `channel c pipe 1`, "unknown kind"},
		{"undeclared-queue", `behavior a { send q 1 } top a`, "not a declared queue"},
		{"irq-non-sem", `channel q queue 1
			behavior a { delay 1 }
			top a
			irq i at 5 releases q`, "must release a declared semaphore"},
		{"dup-behavior", `behavior a { delay 1 } behavior a { delay 1 } top a`, "duplicate behavior"},
		{"compose-unknown", `behavior a { delay 1 } compose m seq { a ghost } top m`, "unknown behavior"},
		{"missing-brace", `behavior a { delay 1`, "missing }"},
		{"task-unknown", `behavior a { delay 1 } top a task ghost priority 1`, "unknown behavior"},
		{"top-unknown", `behavior a { delay 1 } top ghost`, "not declared"},
		{"queue-capacity-0", `channel q queue 0 behavior a { delay 1 } top a`, `queue "q" capacity 0 < 1`},
		{"semaphore-negative", `channel s semaphore -1 behavior a { delay 1 } top a`, `semaphore "s" initial count -1 < 0`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestPeriodicTaskMapping(t *testing.T) {
	src := `
behavior p { delay 10us }
compose main par { p }
top main
task p priority 1 period 100us wcet 10us
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Tasks[0].Periodic || m.Tasks[0].Period != 100*sim.Microsecond {
		t.Errorf("task decl = %+v", m.Tasks[0])
	}
	mp := m.mapping()
	if mp["p"].Type != core.Periodic || mp["p"].Period != 100*sim.Microsecond {
		t.Errorf("mapping = %+v", mp["p"])
	}
}

// TestPersonalityDirective pins the `personality` directive: the figure3
// model runs under every RTOS personality and must hit the same paper
// milestones — the generic run byte-for-byte (passthrough), the native
// kernels on the same schedule since the model's queue traffic never
// contends (capacity 1, strictly alternating producer/consumer).
func TestPersonalityDirective(t *testing.T) {
	for _, pers := range []string{"", "generic", "itron", "osek"} {
		src := figure3SDL
		if pers != "" {
			src += "\npersonality " + pers + "\n"
		}
		m, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", pers, err)
		}
		if m.Personality != pers {
			t.Errorf("Personality = %q, want %q", m.Personality, pers)
		}
		arch, osm, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
		if err != nil {
			t.Fatalf("%q: %v", pers, err)
		}
		if ts := arch.MarkerTimes("ext-data"); len(ts) != 1 || ts[0] != 390 {
			t.Errorf("%q: ext-data at %v, want [390]", pers, ts)
		}
		if arch.End() != 610 {
			t.Errorf("%q: arch end = %v, want 610", pers, arch.End())
		}
		if cs := osm.StatsSnapshot().ContextSwitches; cs < 4 {
			t.Errorf("%q: context switches = %d", pers, cs)
		}
	}
}

// TestPersonalityDirectiveErrors pins rejection of unknown kinds.
func TestPersonalityDirectiveErrors(t *testing.T) {
	_, err := Parse(figure3SDL + "\npersonality vxworks\n")
	if err == nil || !strings.Contains(err.Error(), "unknown personality") {
		t.Errorf("err = %v, want unknown personality", err)
	}
}

// TestPECPUsClause pins the optional `cpus N` clause on pe declarations:
// cpus 1 parses and runs, while every unsupported combination — and in
// particular personality + cpus>1, the configuration that used to fail
// only deep inside a simulation run — is rejected at parse time with an
// actionable message.
func TestPECPUsClause(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // "" = must parse
	}{
		{"cpus-1-ok", strings.Replace(twoPEModel, "pe CPU0 sw", "pe CPU0 sw cpus 1", 1), ""},
		{"cpus-0", strings.Replace(twoPEModel, "pe CPU0 sw", "pe CPU0 sw cpus 0", 1), "must be >= 1"},
		{"cpus-not-int", strings.Replace(twoPEModel, "pe CPU0 sw", "pe CPU0 sw cpus many", 1), "expected integer"},
		{"personality-smp",
			strings.Replace(twoPEModel, "pe CPU0 sw", "pe CPU0 sw cpus 2", 1) + "\npersonality itron\n",
			`personality "itron" models a uniprocessor RTOS`},
		{"generic-smp", strings.Replace(twoPEModel, "pe CPU0 sw", "pe CPU0 sw cpus 2", 1),
			"declare one sw pe per CPU"},
		{"hw-smp", strings.Replace(twoPEModel, "pe CPU0 sw\npe CPU1 sw", "pe CPU0 sw\npe CPU1 hw cpus 2", 1),
			"hardware PE"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := Parse(c.src)
			if c.want == "" {
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				if m.PEs[0].CPUs != 1 {
					t.Errorf("PEs[0].CPUs = %d, want 1", m.PEs[0].CPUs)
				}
				if _, _, err := m.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse); err != nil {
					t.Errorf("RunMapped: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}
