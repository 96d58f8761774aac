package refine

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// randTree builds a random serial-parallel behavior tree of pure delay
// leaves from a deterministic seed and returns it together with its two
// analytic execution times: the critical path (unscheduled model) and the
// total work (architecture model: fully serialized, never idle).
func randTree(seed uint32, depth int, counter *int) (b *Behavior, critical, total sim.Time) {
	next := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	*counter++
	name := fmt.Sprintf("n%d", *counter)
	if depth == 0 || next()%3 == 0 {
		// Leaf with 1..3 delay segments.
		n := int(next()%3) + 1
		var delays []sim.Time
		var sum sim.Time
		for i := 0; i < n; i++ {
			d := sim.Time(next()%20 + 1)
			delays = append(delays, d)
			sum += d
		}
		leaf := Leaf(name, func(x Exec) {
			for _, d := range delays {
				x.Delay(d)
			}
		})
		return leaf, sum, sum
	}
	fanout := int(next()%2) + 2
	var kids []*Behavior
	var critSum, critMax, tot sim.Time
	par := next()%2 == 0
	for i := 0; i < fanout; i++ {
		c, cc, ct := randTree(next(), depth-1, counter)
		kids = append(kids, c)
		tot += ct
		critSum += cc
		if cc > critMax {
			critMax = cc
		}
	}
	if par {
		return Par(name, kids...), critMax, tot
	}
	return Seq(name, kids...), critSum, tot
}

// TestQuickModelsMatchAnalyticTimes: for arbitrary delay-only behavior
// trees, the unscheduled model finishes at the critical-path time and the
// architecture model finishes at the total-work time (serialization with
// no idle), and the trace-accounted busy time equals total work in both.
func TestQuickModelsMatchAnalyticTimes(t *testing.T) {
	f := func(seed uint32) bool {
		var counter int
		tree, critical, total := randTree(seed, 3, &counter)
		root := Seq("root", tree)

		// Unscheduled.
		k1 := sim.NewKernel()
		rec1 := trace.New("spec")
		RunUnscheduled(k1, rec1, rec1, root)
		if err := k1.Run(); err != nil {
			t.Logf("spec run: %v", err)
			return false
		}
		if k1.Now() != critical {
			t.Logf("seed %d: spec end %v, want critical path %v", seed, k1.Now(), critical)
			return false
		}

		// Architecture (priorities arbitrary: total time is invariant).
		k2 := sim.NewKernel()
		os := core.New(k2, "PE", core.PriorityPolicy{})
		RunArchitecture(k2, os, nil, root, Mapping{})
		os.Start(nil)
		if err := k2.Run(); err != nil {
			t.Logf("arch run: %v", err)
			return false
		}
		if k2.Now() != total {
			t.Logf("seed %d: arch end %v, want total work %v", seed, k2.Now(), total)
			return false
		}
		if bt := os.StatsSnapshot().BusyTime; bt != total {
			t.Logf("seed %d: busy %v, want %v", seed, bt, total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickArchitectureNeverOverlaps: for arbitrary trees, no two leaves
// of the architecture model ever execute at the same simulated instant.
func TestQuickArchitectureNeverOverlaps(t *testing.T) {
	f := func(seed uint32) bool {
		var counter int
		tree, _, _ := randTree(seed, 3, &counter)
		root := Seq("root", tree)
		k := sim.NewKernel()
		os := core.New(k, "PE", core.PriorityPolicy{})
		rec := trace.New("arch")
		telemetry.Attach(os, rec)
		RunArchitecture(k, os, rec, root, Mapping{})
		os.Start(nil)
		if err := k.Run(); err != nil {
			return false
		}
		tasks := rec.Tasks()
		for i := 0; i < len(tasks); i++ {
			for j := i + 1; j < len(tasks); j++ {
				if rec.Overlap(tasks[i], tasks[j]) != 0 {
					t.Logf("seed %d: %s and %s overlap", seed, tasks[i], tasks[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickRefinementPreservesLeafWork: each leaf's busy time is identical
// between the two models — refinement re-schedules but never changes the
// modeled computation.
func TestQuickRefinementPreservesLeafWork(t *testing.T) {
	f := func(seed uint32) bool {
		var counter int
		tree, _, _ := randTree(seed, 2, &counter)
		root := Seq("root", tree)

		k1 := sim.NewKernel()
		rec1 := trace.New("spec")
		RunUnscheduled(k1, rec1, rec1, root)
		if err := k1.Run(); err != nil {
			return false
		}
		k2 := sim.NewKernel()
		os := core.New(k2, "PE", core.PriorityPolicy{})
		rec2 := trace.New("arch")
		telemetry.Attach(os, rec2)
		RunArchitecture(k2, os, rec2, root, Mapping{})
		os.Start(nil)
		if err := k2.Run(); err != nil {
			return false
		}
		for _, task := range rec1.Tasks() {
			specBusy := rec1.BusyTime(task)
			if specBusy == 0 {
				continue // composite nodes have no own execution
			}
			// In the arch model seq-composed leaves execute within their
			// ancestor task, so compare only leaves that became tasks.
			archBusy := rec2.BusyTime(task)
			if archBusy != 0 && archBusy != specBusy {
				t.Logf("seed %d: task %s busy %v (arch) vs %v (spec)", seed, task, archBusy, specBusy)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
