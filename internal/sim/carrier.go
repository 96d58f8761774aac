//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// carrier is a runtime coroutine (iter.Pull) that runs simulation
// processes, one after another: its body loops, running the process it was
// handed to completion and then yielding until it is handed the next one.
// A process gets a carrier on its first resume and gives it back once it
// has ended, so a kernel creates coroutines only up to its peak number of
// started, unfinished processes, and a batch of kernels reuses them.
type carrier struct {
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
	p     *Proc // the process it runs; nil while idle
	h     *Proc // the final hand-off of the process that just ended
}

// maxIdleCarriers caps the idle stack. A carrier freed beyond it is
// stopped, so its goroutine exits, and the next process needs a new one
// (12 allocations). A kernel whose process count exceeds the cap thus
// rebuilds the excess on every run: at 256, a 512-process sweep took
// 7680 allocations per run against 4661 with a goroutine per process
// (2 vCPUs, Go 1.24). At 1024 no measured batch allocates more than with
// a goroutine per process, up to 8 workers on 512-process kernels, and a
// parked carrier holds about 4 KiB of stack.
const maxIdleCarriers = 1024

// idleCarriers holds carriers parked between processes. It is a plain
// mutex-guarded stack rather than a sync.Pool: a carrier that a pool
// dropped would stay parked as a goroutine forever.
var idleCarriers struct {
	sync.Mutex
	stack []*carrier
}

// getCarrier pops an idle carrier, or starts a new one.
func getCarrier() *carrier {
	idleCarriers.Lock()
	if n := len(idleCarriers.stack); n > 0 {
		c := idleCarriers.stack[n-1]
		idleCarriers.stack[n-1] = nil
		idleCarriers.stack = idleCarriers.stack[:n-1]
		idleCarriers.Unlock()
		return c
	}
	idleCarriers.Unlock()
	c := new(carrier)
	c.next, c.stop = iter.Pull(iter.Seq[*Proc](c.loop))
	return c
}

// putCarrier parks c, whose process has ended and whose resumer's next
// has returned, or stops it when the idle stack is full.
func putCarrier(c *carrier) {
	idleCarriers.Lock()
	if len(idleCarriers.stack) < maxIdleCarriers {
		idleCarriers.stack = append(idleCarriers.stack, c)
		idleCarriers.Unlock()
		return
	}
	idleCarriers.Unlock()
	c.stop()
}

// loop is the coroutine body. Each round runs one process and leaves its
// final hand-off in c.h, for the resumer to take; the resumer then either
// hands the carrier a new process and calls next, or stops it. The round
// yields nil rather than the hand-off because iter.Pull keeps the last
// yielded value: an idle carrier would keep the hand-off's kernel, and
// everything its processes reach, from being collected.
func (c *carrier) loop(yield func(*Proc) bool) {
	c.yield = yield
	for {
		c.h = c.p.run()
		c.p = nil
		if !yield(nil) {
			return
		}
	}
}
