package sdl

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// mustLoad opens a built-in model, failing the test on error.
func mustLoad(t *testing.T, name string) *Model {
	t.Helper()
	m, err := Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseFigure3(t *testing.T) {
	m := mustLoad(t, "figure3")
	if len(m.Channels) != 3 || len(m.Behaviors) != 3 || len(m.Composes) != 2 {
		t.Errorf("parsed %d channels, %d behaviors, %d composes",
			len(m.Channels), len(m.Behaviors), len(m.Composes))
	}
	if m.Top != "PE" {
		t.Errorf("top = %q", m.Top)
	}
	if len(m.IRQs) != 1 || m.IRQs[0].At != 280 || m.IRQs[0].Releases != "sem" {
		t.Errorf("irq = %+v", m.IRQs)
	}
	if len(m.Tasks) != 3 {
		t.Errorf("tasks = %+v", m.Tasks)
	}
}

// TestLoadReturnsFreshModels pins that every Load parses anew, so one
// caller's edits never reach another's model.
func TestLoadReturnsFreshModels(t *testing.T) {
	a := mustLoad(t, "figure3")
	a.IRQs[0].At = 1
	a.Behaviors[0].Stmts[0].Dur = 1
	b := mustLoad(t, "figure3")
	if b.IRQs[0].At != 280 || b.Behaviors[0].Stmts[0].Dur != 100 {
		t.Errorf("edits leaked into a later Load: irq at %v, B1 delay %v",
			b.IRQs[0].At, b.Behaviors[0].Stmts[0].Dur)
	}
	if _, err := Load("nosuch"); err == nil || !strings.Contains(err.Error(), `no built-in model "nosuch"`) {
		t.Errorf("Load(nosuch) err = %v", err)
	}
}

// TestSplitDelay pins the annotation split of the granularity ablation:
// repeat n-1 { delay d/n } then delay d/n + d%n, the same total.
func TestSplitDelay(t *testing.T) {
	m := mustLoad(t, "figure3")
	if err := m.SplitDelay("B2", 3, 8); err != nil {
		t.Fatal(err)
	}
	st := m.Behaviors[1].Stmts
	if len(st) != 9 || st[3].Op != OpRepeat || st[3].Count != 7 ||
		len(st[3].Body) != 1 || st[3].Body[0].Dur != 15 || st[4].Op != OpDelay || st[4].Dur != 15 {
		t.Errorf("split d6 = %+v, %+v", st[3], st[4])
	}
	if err := m.SplitDelay("B2", 0, 7); err != nil {
		t.Fatal(err)
	}
	if st := m.Behaviors[1].Stmts; st[0].Body[0].Dur != 5 || st[1].Dur != 10 {
		t.Errorf("split d5 of 40 into 7 = %+v, %+v; want 6×5 then 10", st[0], st[1])
	}
	if err := m.SplitDelay("B2", 2, 2); err == nil {
		t.Error("SplitDelay accepted a statement that is not a delay")
	}
	if err := m.SplitDelay("ghost", 0, 2); err == nil {
		t.Error("SplitDelay accepted an unknown behavior")
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
	fig3, err := builtin.ReadFile("models/figure3.sdl")
	if err != nil {
		t.Fatal(err)
	}
	for _, pers := range []string{"", "generic", "itron", "osek"} {
		src := string(fig3)
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
	_, err := Parse("behavior a { delay 1 } top a\npersonality vxworks\n")
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
				if _, _, _, err := m.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse); err != nil {
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
