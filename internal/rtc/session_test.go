package rtc

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// periodicWorkload is an n-task periodic set under the given personality.
func periodicWorkload(n int, pers string) Workload {
	w := Workload{
		Policy:      "priority",
		Personality: pers,
		TimeModel:   core.TimeModelSegmented,
		Horizon:     50 * sim.Millisecond,
	}
	for j := 0; j < n; j++ {
		w.Tasks = append(w.Tasks, TaskDef{
			Name: fmt.Sprintf("t%d", j), Type: "periodic", Prio: j,
			Period:   sim.Time(j+1) * sim.Millisecond,
			Segments: []sim.Time{sim.Time(j+1) * 100 * sim.Microsecond},
		})
	}
	return w
}

// TestNewSessionAllocs pins a build's allocations to one per object
// class — the session (kernel and OS state included), the timing wheel,
// the task, machine and timer slabs, the periodic-body array, the body
// table, and the task, machine, ready and timer lists — whatever the
// task count or personality. A run of the scheduler-only workload then
// allocates just the Result and its task table.
func TestNewSessionAllocs(t *testing.T) {
	const wantBuild, wantRun = 14, 16
	for _, pers := range []string{"generic", "itron", "osek"} {
		for _, n := range []int{8, 32} {
			w := periodicWorkload(n, pers)
			build := testing.AllocsPerRun(20, func() {
				if _, err := NewSession(w); err != nil {
					t.Fatal(err)
				}
			})
			run := testing.AllocsPerRun(20, func() {
				s, err := NewSession(w)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunUntil(w.Horizon); err != nil {
					t.Fatal(err)
				}
				s.Finish()
			})
			if build != wantBuild || run != wantRun {
				t.Errorf("%s, %d tasks: NewSession allocates %.0f times and a whole run %.0f, want %d and %d",
					pers, n, build, run, wantBuild, wantRun)
			}
		}
	}
}
