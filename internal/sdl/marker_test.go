package sdl

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// markerEvents returns the marker events of a stream.
func markerEvents(events []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range events {
		if e.Kind == telemetry.KindMarker {
			out = append(out, e)
		}
	}
	return out
}

// TestSessionBusGetsMarkers runs each corpus model as an rtc session with
// a bus, with the trace off and on: either way the bus receives the SDL
// marker statements' events, equal to those the goroutine kernel feeds
// its bus.
func TestSessionBusGetsMarkers(t *testing.T) {
	for name, src := range sdlCorpus(t) {
		m, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var gc telemetry.Collector
		_, _, err = m.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse, telemetry.NewBus(&gc))
		if err != nil {
			t.Fatalf("%s: goroutine run: %v", name, err)
		}
		want := markerEvents(gc.Events)
		if len(want) == 0 {
			t.Fatalf("%s: the goroutine run wrote no markers", name)
		}
		for _, traced := range []bool{false, true} {
			w, err := m.RTCWorkload("priority", 0, core.TimeModelCoarse, sim.Second)
			if err != nil {
				t.Fatal(err)
			}
			w.Trace = traced
			var rc telemetry.Collector
			s, err := rtc.NewSession(w, telemetry.NewBus(&rc))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(w.Horizon); err != nil {
				t.Fatal(err)
			}
			got := markerEvents(rc.Events)
			if len(got) != len(want) {
				t.Fatalf("%s, trace %v: the session's bus got %d markers, the goroutine kernel's %d",
					name, traced, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, trace %v: marker %d is %s, want %s", name, traced, i, got[i], want[i])
				}
			}
		}
	}
}
