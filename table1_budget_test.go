// Table 1 allocation budget: one specification run plus one architecture
// run of the full-size vocoder (the pair Table 1 compares) must stay
// within a fixed allocation count, so trace storage and channel
// bookkeeping cannot creep back onto the hot path unnoticed.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vocoder"
)

// table1AllocCeiling is 1.5× the 209 allocations the pair measured with
// paged trace storage and ring-buffer queues (go1.24, any GOMAXPROCS;
// +7 under -race). Slice-doubling trace storage and the slice-creeping
// queue FIFO cost about 1770.
const table1AllocCeiling = 313

func TestTable1AllocBudget(t *testing.T) {
	par := vocoder.Default()
	pair := func() {
		if _, _, err := vocoder.RunSpec(par); err != nil {
			t.Fatal(err)
		}
		if _, _, err := vocoder.RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, pair)
	t.Logf("%.0f allocs per RunSpec+RunArch pair (ceiling %d)", avg, table1AllocCeiling)
	if avg > table1AllocCeiling {
		t.Errorf("RunSpec+RunArch allocates %.0f times, over the budget of %d", avg, table1AllocCeiling)
	}
}
