package sdl

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// twoSemDeadlock wedges at once: each task waits for the semaphore only
// the other would release.
const twoSemDeadlock = `
channel s1 semaphore 0
channel s2 semaphore 0
behavior a { acquire s1 release s2 }
behavior b { acquire s2 release s1 }
compose main par { a b }
top main
task main priority 0
task a priority 1
task b priority 2
`

// TestRunnersReleaseGoroutines is the regression test for the runners'
// goroutine leak: every run used to leave its unfinished processes
// (interrupt stimuli, link ISRs, deadlocked tasks) parked, so a batch of
// runs grew the goroutine count by a few per run. Each runner must shut
// its kernel down and still return a readable trace.
func TestRunnersReleaseGoroutines(t *testing.T) {
	fig3 := mustLoad(t, "figure3")
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "pipeline2pe.sdl"))
	if err != nil {
		t.Fatal(err)
	}
	mapped := mustParse(t, string(src))
	deadlock := mustParse(t, twoSemDeadlock)

	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		rec, err := fig3.RunUnscheduled()
		if err != nil || rec.End() != 390 {
			t.Fatalf("figure3 spec: end %v, err %v", rec.End(), err)
		}
		rec, osi, err := fig3.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
		if err != nil || rec.End() != 610 || osi.StatsSnapshot().IRQs != 1 {
			t.Fatalf("figure3 arch: end %v, stats %+v, err %v", rec.End(), osi.StatsSnapshot(), err)
		}
		rec, _, buses, err := mapped.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse)
		if err != nil || len(rec.MarkerTimes("out")) != 6 || buses["sysbus"].Transfers() != 6 {
			t.Fatalf("pipeline2pe mapped: err %v", err)
		}
		if _, _, err := deadlock.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse); err == nil {
			t.Fatal("two-semaphore deadlock ran to completion")
		}
	}
	// Let the killed goroutines finish their unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines before=%d after=%d: a runner leaks", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
