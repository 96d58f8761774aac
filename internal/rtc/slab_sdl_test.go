package rtc_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/rtc"
	"repro/internal/sdl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// nestedParSDL forks three par levels, ten tasks in all: far more than
// the root task and single interrupt's machines a build reserves.
const nestedParSDL = `
channel q queue 2
channel s semaphore 0

behavior a { delay 30ns send q 1 delay 20ns }
behavior b { recv q delay 40ns marker b-got 0 }
behavior c { delay 15ns acquire s delay 10ns }
behavior d { delay 25ns send q 2 }
behavior e { recv q delay 5ns }
behavior f { delay 60ns }
behavior g { delay 35ns }

compose inner par { d e f }
compose mid par { c inner g }
compose outer par { a b mid }
compose main seq { outer }
top main

irq line at 50ns releases s

task main priority 0
task a priority 3
task b priority 4
task c priority 1
task d priority 2
`

// render is the canonical byte form of an architecture run: the record
// stream, the final counters and the end time.
func render(recs []trace.Record, stats core.Stats, end sim.Time) []byte {
	var b bytes.Buffer
	for _, r := range recs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "stats %+v end %v\n", stats, end)
	return b.Bytes()
}

// TestParForksOutgrowFirstSlab runs SDL models whose par forks create
// more tasks and machines than the build's first slab chunks hold, so
// the engine takes further chunks mid-run. Each run must still match the
// goroutine kernel byte for byte, and the corpus models their golden
// architecture traces.
func TestParForksOutgrowFirstSlab(t *testing.T) {
	models := []struct {
		name, src, golden string
	}{
		{name: "nested-par", src: nestedParSDL},
	}
	for _, c := range []struct{ name, path string }{
		{"figure3", filepath.Join("..", "..", "testdata", "figure3.sdl")},
		{"vocoder", filepath.Join("..", "sdl", "testdata", "vocoder.sdl")},
		{"busdriver", filepath.Join("..", "sdl", "testdata", "busdriver.sdl")},
	} {
		src, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, struct{ name, src, golden string }{
			c.name, string(src), filepath.Join("..", "sdl", "testdata", "golden", c.name+".arch.trace"),
		})
	}
	for _, mc := range models {
		t.Run(mc.name, func(t *testing.T) {
			m, err := sdl.Parse(mc.src)
			if err != nil {
				t.Fatal(err)
			}
			rec, osi, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
			if err != nil {
				t.Fatalf("goroutine run: %v", err)
			}
			defer osi.Kernel().Shutdown()
			want := render(rec.Records(), osi.StatsSnapshot(), osi.Kernel().Now())

			w, err := m.RTCWorkload("priority", 0, core.TimeModelCoarse, sim.Second)
			if err != nil {
				t.Fatal(err)
			}
			s, err := rtc.NewSession(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(w.Horizon); err != nil {
				t.Fatalf("rtc run: %v", err)
			}
			res := s.Finish()
			got := render(res.Trace.Records(), res.Stats, res.End)

			firstTasks, firstMachines := rtc.BuildSize(w)
			tasks, machines := rtc.Population(s)
			if tasks <= firstTasks || machines <= firstMachines {
				t.Fatalf("run holds %d tasks and %d machines, first slabs %d and %d: no chunk was added",
					tasks, machines, firstTasks, firstMachines)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rtc run diverges from the goroutine kernel:\nrtc:\n%s\ngoroutine:\n%s", got, want)
			}
			if mc.golden == "" {
				return
			}
			golden, err := os.ReadFile(mc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Fatalf("rtc run deviates from golden %s", mc.golden)
			}
		})
	}
}
