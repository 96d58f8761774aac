// Table 1 allocation budgets: one specification run plus one
// architecture run of the full-size vocoder (the pair Table 1 compares)
// must stay within a fixed allocation count and a fixed number of
// allocated bytes, so trace storage and channel bookkeeping cannot creep
// back onto the hot path unnoticed. The runners record only the 652
// frame markers their Results read (2 × 163 per run); the scheduler
// events and execution segments of a full trace, 7,680 records in all,
// would add about 230 kB, four times the pair's bytes.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/vocoder"
)

// table1AllocCeiling is 1.5× the 159 allocations the pair measured with
// marker-only recorders (go1.24, GOMAXPROCS 1 and 2; +7 under -race).
// Recording the full trace cost 209 before the coroutine hand-off and
// 169 after it; slice-doubling trace storage and the
// slice-creeping queue FIFO cost about 1770.
const table1AllocCeiling = 239

// table1ByteCeiling is 1.5× the 58.9 kB the pair allocated with
// marker-only recorders (go1.24, GOMAXPROCS 1 and 2; 59.4 kB under
// -race). A full trace in pointer-free entries cost 288.5 kB, and
// records holding four string headers each 754.5 kB.
const table1ByteCeiling = 88_300

// table1Pair returns one RunSpec+RunArch pair of the full-size vocoder.
func table1Pair(t *testing.T) func() {
	par := vocoder.Default()
	return func() {
		if _, _, err := vocoder.RunSpec(par); err != nil {
			t.Fatal(err)
		}
		if _, _, err := vocoder.RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTable1AllocBudget(t *testing.T) {
	avg := testing.AllocsPerRun(5, table1Pair(t))
	t.Logf("%.0f allocs per RunSpec+RunArch pair (ceiling %d)", avg, table1AllocCeiling)
	if avg > table1AllocCeiling {
		t.Errorf("RunSpec+RunArch allocates %.0f times, over the budget of %d", avg, table1AllocCeiling)
	}
}

func TestTable1ByteBudget(t *testing.T) {
	pair := table1Pair(t)
	pair() // warm up, as testing.AllocsPerRun does
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	avg := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per RunSpec+RunArch pair (ceiling %d)", avg, table1ByteCeiling)
	if avg > table1ByteCeiling {
		t.Errorf("RunSpec+RunArch allocates %d bytes, over the budget of %d", avg, table1ByteCeiling)
	}
}
