package sdl

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// twoPEModel: a producer on CPU0 streams values over a bus link to a
// consumer on CPU1; each side also has a local background behavior
// contending for its CPU.
const twoPEModel = `
pe CPU0 sw
pe CPU1 sw
bus sysbus arb 100ns perbyte 10ns
link data over sysbus from CPU0 to CPU1 bytes 8

behavior producer {
    repeat 4 {
        delay 500ns
        send data 7
    }
}
behavior bg0 { repeat 4 { delay 200ns } }
compose cpu0work par { producer bg0 }

behavior consumer {
    repeat 4 {
        recv data
        delay 300ns
        marker out 0
    }
}
compose cpu1work seq { consumer }

compose system par { cpu0work cpu1work }
top system

map cpu0work to CPU0
map cpu1work to CPU1

task cpu0work priority 0
task producer priority 1
task bg0 priority 2
task cpu1work priority 0
task consumer priority 1
`

func TestRunMappedTwoPEs(t *testing.T) {
	m, err := Parse(twoPEModel)
	if err != nil {
		t.Fatal(err)
	}
	if !m.MultiPE() {
		t.Fatal("model not recognized as multi-PE")
	}
	rec, oss, _, err := m.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	outs := rec.MarkerTimes("out")
	if len(outs) != 4 {
		t.Fatalf("outputs = %v, want 4", outs)
	}
	// Producer: item i sent at (i+1)*500 + bg contention; link: 100+80 =
	// 180ns bus + ISR; consumer adds 300. First out ≥ 500+180+300 = 980.
	if outs[0] < 980 {
		t.Errorf("first output at %v, want ≥ 980ns", outs[0])
	}
	// Both PEs scheduled work.
	if len(oss) != 2 {
		t.Fatalf("oss = %d, want 2", len(oss))
	}
	for name, os := range oss {
		if os.StatsSnapshot().Dispatches == 0 {
			t.Errorf("PE %s never dispatched", name)
		}
	}
	// The producer and the consumer's task overlap: different CPUs. (The
	// consumer executes within its PE's main task "cpu1work" — it is a
	// seq child, so it does not become a task of its own.)
	if ov := rec.Overlap("producer", "cpu1work"); ov == 0 {
		t.Error("no producer/cpu1work overlap across PEs")
	}
	// bg0 and producer are on the same CPU: serialized.
	if ov := rec.Overlap("producer", "bg0"); ov != 0 {
		t.Errorf("producer/bg0 overlap = %v on one CPU, want 0", ov)
	}
}

func TestRunMappedHWPE(t *testing.T) {
	src := `
pe CPU sw
pe ACC hw
bus b arb 0ns perbyte 1ns
link toacc over b from CPU to ACC bytes 4
link fromacc over b from ACC to CPU bytes 4

behavior swside {
    send toacc 5
    recv fromacc
    marker done 0
}
compose cpuwork seq { swside }
behavior accel {
    recv toacc
    delay 50ns
    send fromacc 6
}
compose accwork seq { accel }
compose system par { cpuwork accwork }
top system
map cpuwork to CPU
map accwork to ACC
task cpuwork priority 0
task swside priority 1
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rec, oss, _, err := m.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	if len(oss) != 1 {
		t.Fatalf("software PEs = %d, want 1", len(oss))
	}
	ts := rec.MarkerTimes("done")
	if len(ts) != 1 {
		t.Fatalf("done markers = %v", ts)
	}
	// Round trip: 4ns to ACC + 50ns compute + 4ns back + ISR deltas.
	if ts[0] < 58 || ts[0] > 200 {
		t.Errorf("done at %v, want ≈58-200ns", ts[0])
	}
}

func TestRunMappedChannelCrossPERejected(t *testing.T) {
	src := `
pe A sw
pe B sw
channel q queue 1
behavior pa { send q 1 }
compose wa seq { pa }
behavior pb { recv q }
compose wb seq { pb }
compose system par { wa wb }
top system
map wa to A
map wb to B
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse); err == nil ||
		!strings.Contains(err.Error(), "declare it as a link") {
		t.Errorf("cross-PE channel not rejected: %v", err)
	}
}

func TestMultiPEValidationErrors(t *testing.T) {
	base := `
behavior a { delay 1 }
compose system par { a }
top system
`
	cases := []struct{ name, src, want string }{
		{"link-no-pe", `channel x queue 1` + base + `bus b arb 0 perbyte 0`, "require pe declarations"},
		{"unknown-bus", `pe P sw` + base + `map a to P
			link l over ghost from P to P bytes 1`, "unknown bus"},
		{"self-link", `pe P sw` + base + `map a to P
			bus b arb 0 perbyte 0
			link l over b from P to P bytes 1`, "itself"},
		{"negative-isr", `pe P sw
			pe Q hw` + base + `map a to P
			bus b arb 0 perbyte 0
			link l over b from P to Q bytes 1 isr -1us`, "negative isr"},
		{"bad-isr", `pe P sw
			pe Q hw` + base + `map a to P
			bus b arb 0 perbyte 0
			link l over b from P to Q bytes 1 isr soon`, "bad time"},
		{"unmapped-child", `pe P sw` + base, "not mapped"},
		{"map-unknown-pe", `pe P sw` + base + `map a to Q`, "unknown pe"},
		{"dup-pe", `pe P sw
			pe P hw` + base + `map a to P`, "duplicate pe"},
		{"seq-top", `pe P sw
			behavior s { delay 1 }
			compose m seq { s }
			top m
			map s to P`, "par composition"},
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

func TestRunMappedOnSinglePEModelFails(t *testing.T) {
	m := mustLoad(t, "figure3")
	if _, _, _, err := m.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse); err == nil {
		t.Error("RunMapped accepted a model without PEs")
	}
}

// TestMappedSpeedsUpVsSinglePE: the same logical pipeline mapped onto two
// PEs finishes earlier than squeezed onto one (the EXT-MP effect, from
// the SDL frontend).
func TestMappedSpeedsUpVsSinglePE(t *testing.T) {
	single := `
channel data queue 2
behavior producer { repeat 6 { delay 100ns send data 1 } }
behavior consumer { repeat 6 { recv data delay 100ns } }
compose system par { producer consumer }
top system
task system priority 0
task producer priority 1
task consumer priority 2
`
	ms, err := Parse(single)
	if err != nil {
		t.Fatal(err)
	}
	recS, _, err := ms.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}

	dual := `
pe A sw
pe B sw
bus b arb 0ns perbyte 0ns
link data over b from A to B bytes 1
behavior producer { repeat 6 { delay 100ns send data 1 } }
compose wa seq { producer }
behavior consumer { repeat 6 { recv data delay 100ns } }
compose wb seq { consumer }
compose system par { wa wb }
top system
map wa to A
map wb to B
task wa priority 0
task wb priority 0
task producer priority 1
task consumer priority 1
`
	md, err := Parse(dual)
	if err != nil {
		t.Fatal(err)
	}
	recD, _, _, err := md.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	if !(recD.End() < recS.End()) {
		t.Errorf("two-PE end %v not earlier than single-PE end %v", recD.End(), recS.End())
	}
	var s sim.Time = recS.End()
	if s != 1200 {
		t.Errorf("single-PE end = %v, want 1200 (serialized 12×100)", s)
	}
}

// TestRunMappedPersonalities reruns the two-PE model with a personality
// directive: every software PE gets its own native kernel instance, and
// the mapped schedule must be unchanged — link traffic crosses the bus
// below the personality layer, and the per-PE local channels see no
// contended grants in this model.
func TestRunMappedPersonalities(t *testing.T) {
	ref, _, _, err := mustParse(t, twoPEModel).RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse)
	if err != nil {
		t.Fatal(err)
	}
	for _, pers := range []string{"itron", "osek"} {
		m := mustParse(t, twoPEModel+"\npersonality "+pers+"\n")
		rec, oss, _, err := m.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse)
		if err != nil {
			t.Fatalf("%s: %v", pers, err)
		}
		if len(oss) != 2 {
			t.Fatalf("%s: oss = %d, want 2", pers, len(oss))
		}
		want := ref.MarkerTimes("out")
		got := rec.MarkerTimes("out")
		if len(got) != len(want) {
			t.Fatalf("%s: outputs = %v, want %v", pers, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: out[%d] at %v, want %v", pers, i, got[i], want[i])
			}
		}
	}
}

func mustParse(t *testing.T, src string) *Model {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
