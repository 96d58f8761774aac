package rtc_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rtc"
	"repro/internal/sdl"
	"repro/internal/sim"
)

// TestNestedRepeatAllocs runs an SDL model whose leaf nests one repeat
// in another, with outer counts n and 2n. A repeat's body runs in a frame
// kept in its compiled statement, so entering the inner repeat on every
// outer round allocates nothing: both runs allocate the same.
func TestNestedRepeatAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		m, err := sdl.Parse(fmt.Sprintf(`
behavior loop { repeat %d { delay 10ns repeat 3 { delay 5ns marker tick 0 } } }
top loop
`, n))
		if err != nil {
			t.Fatal(err)
		}
		w, err := m.RTCWorkload("priority", 0, core.TimeModelCoarse, sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		w.Trace = false // trace pages grow with the run
		return testing.AllocsPerRun(20, func() {
			s, err := rtc.NewSession(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(w.Horizon); err != nil {
				t.Fatal(err)
			}
			s.Finish()
		})
	}
	if a, b := allocs(40), allocs(80); a != b {
		t.Errorf("a run of 40 outer rounds allocates %.0f times and one of 80 %.0f, want the same", a, b)
	}
}
