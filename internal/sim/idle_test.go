package sim

import (
	"runtime"
	"testing"
)

// TestRecyclingIgnoresGC: a kernel run allocates the same count whether
// or not garbage collections precede it, since the idle Procs and
// carriers outlive a collection. (Two collections empty a sync.Pool.)
func TestRecyclingIgnoresGC(t *testing.T) {
	names := []string{"c0", "c1"} // a default name would come from fmt's own pool
	run := func() {
		k := NewKernel()
		for i := 0; i < 64; i++ {
			k.Spawn("p", func(p *Proc) {
				p.ParNamed(names, func(c *Proc) { c.WaitFor(2) }, func(c *Proc) { c.WaitFor(3) })
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
	}
	run()
	plain := testing.AllocsPerRun(10, run)
	collected := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		run()
	})
	if plain != collected {
		t.Errorf("a run allocates %.0f times, but %.0f after two collections", plain, collected)
	}
}
