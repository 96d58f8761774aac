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
	type model struct {
		name string
		m    *sdl.Model
	}
	nested, err := sdl.Parse(nestedParSDL)
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := sdl.Load("figure3")
	if err != nil {
		t.Fatal(err)
	}
	models := []model{{"nested-par", nested}, {"figure3", fig3}}
	for _, name := range []string{"vocoder", "busdriver"} {
		src, err := os.ReadFile(filepath.Join("..", "sdl", "testdata", name+".sdl"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := sdl.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{name, m})
	}
	for _, mc := range models {
		t.Run(mc.name, func(t *testing.T) {
			m := mc.m
			rec, osi, err := m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
			if err != nil {
				t.Fatalf("goroutine run: %v", err)
			}
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
			if mc.name == "nested-par" {
				return
			}
			path := filepath.Join("..", "sdl", "testdata", "golden", mc.name+".arch.trace")
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Fatalf("rtc run deviates from golden %s", path)
			}
		})
	}
}
