package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests of the coroutine hand-off: processes run on pooled carriers that
// the kernel loop resumes, Kill resumes its target in kill mode, and a
// carrier goes back to the idle stack only once its process has ended.

// idleCount returns the number of parked carriers.
func idleCount() int {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	return len(idleCarriers.stack)
}

// isIdle reports whether c is parked on the idle stack.
func isIdle(c *carrier) bool {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	for _, x := range idleCarriers.stack {
		if x == c {
			return true
		}
	}
	return false
}

func TestHandoffKillNeverRun(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	ran := false
	var victim *Proc
	k.Spawn("killer", func(p *Proc) {
		victim = p.Spawn("victim", func(*Proc) { ran = true })
		p.Kill(victim)
		if victim.c != nil {
			t.Error("a process killed before its first run holds a carrier")
		}
		p.WaitFor(5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("killed process ran")
	}
	if victim.State() != StateKilled || k.Active() != 0 {
		t.Errorf("victim %v, active %d; want killed, 0", victim.State(), k.Active())
	}
	if k.Now() != 5 {
		t.Errorf("end = %v, want 5", k.Now())
	}
}

func TestHandoffKillDuringWaitTimeout(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	e := k.NewEvent("e")
	var log []string
	var vc *carrier
	victim := k.Spawn("victim", func(p *Proc) {
		vc = p.c
		defer func() { log = append(log, fmt.Sprintf("victim unwound at %v", p.Now())) }()
		p.WaitTimeout(e, 1000)
		t.Error("victim resumed after kill")
	})
	k.Spawn("killer", func(p *Proc) {
		p.WaitFor(10)
		p.Kill(victim)
		// The kill ran the victim's unwind on its carrier and returned
		// here; the carrier is parked again.
		log = append(log, "killer continues")
		if victim.c != nil || !isIdle(vc) {
			t.Error("victim's carrier not back on the idle stack after the kill")
		}
		if n := k.PendingTimers(); n != 0 {
			t.Errorf("pending timers after kill = %d, want 0", n)
		}
		p.Notify(e)
		p.WaitFor(20)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, "; "), "victim unwound at 10ns; killer continues"; got != want {
		t.Errorf("log = %q, want %q", got, want)
	}
	if k.Now() != 30 {
		t.Errorf("end = %v, want 30", k.Now())
	}
}

func TestHandoffSelfKill(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	e := k.NewEvent("never")
	var log []string
	k.Spawn("self", func(p *Proc) {
		defer func() { log = append(log, "self unwound") }()
		p.Spawn("child", func(c *Proc) {
			defer func() { log = append(log, "child unwound") }()
			c.Wait(e)
		})
		p.WaitFor(5)
		p.Kill(p)
		t.Error("execution continued past self-kill")
	})
	k.Spawn("other", func(p *Proc) {
		p.WaitFor(10)
		log = append(log, fmt.Sprintf("other at %v", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The self-killed process hands off to the next runnable one as a
	// finished process does.
	if got, want := strings.Join(log, "; "), "child unwound; self unwound; other at 10ns"; got != want {
		t.Errorf("log = %q, want %q", got, want)
	}
	if k.Active() != 0 {
		t.Errorf("active = %d, want 0", k.Active())
	}
}

func TestHandoffKillParParent(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	e := k.NewEvent("never")
	var log []string
	parent := k.Spawn("parent", func(p *Proc) {
		defer func() { log = append(log, "parent") }()
		p.Par(
			func(c *Proc) {
				defer func() { log = append(log, "c0") }()
				c.Wait(e)
			},
			func(c *Proc) {
				defer func() { log = append(log, "c1") }()
				c.WaitFor(100)
			},
		)
		t.Error("parent resumed past Par after kill")
	})
	k.Spawn("killer", func(p *Proc) {
		p.WaitFor(10)
		if got := parent.State(); got != StateWaitChildren {
			t.Errorf("parent state = %v, want %v", got, StateWaitChildren)
		}
		p.Kill(parent)
		for _, c := range parent.children {
			if c.State() != StateKilled || c.c != nil {
				t.Errorf("%v still holds a carrier or is not killed", c)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, ","), "c0,c1,parent"; got != want {
		t.Errorf("unwind order = %s, want %s", got, want)
	}
	if k.Now() != 10 || k.Active() != 0 {
		t.Errorf("end %v, active %d; want 10ns, 0", k.Now(), k.Active())
	}
}

func TestHandoffShutdownAtHorizon(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("never")
	unwound := 0
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprint("ticker", i), func(p *Proc) {
			defer func() { unwound++ }()
			for {
				p.WaitFor(7)
			}
		})
	}
	k.Spawn("waiter", func(p *Proc) {
		defer func() { unwound++ }()
		p.Wait(e)
	}).SetDaemon(true)
	if err := k.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 49 {
		t.Errorf("horizon stop at %v, want 49ns", k.Now())
	}
	var held []*carrier
	for _, p := range k.Procs() {
		if p.c == nil {
			t.Fatalf("%v parked at the horizon holds no carrier", p)
		}
		held = append(held, p.c)
	}
	k.Shutdown()
	if unwound != 4 {
		t.Errorf("deferred functions run = %d, want 4", unwound)
	}
	for _, c := range held {
		if !isIdle(c) {
			t.Error("a carrier freed by Shutdown is not on the idle stack")
		}
	}
}

func TestHandoffPanicReusesCarrier(t *testing.T) {
	var used *carrier
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom on the Run caller", r)
			}
		}()
		k := NewKernel()
		defer k.Shutdown()
		k.Spawn("p", func(p *Proc) {
			used = p.c
			p.WaitFor(3)
			panic("boom")
		})
		_ = k.Run()
		t.Error("Run returned instead of re-raising the panic")
	}()
	if !isIdle(used) {
		t.Fatal("the carrier of a panicked process is not back on the idle stack")
	}
	// The stack is LIFO: a fresh kernel's first process takes it.
	k := NewKernel()
	defer k.Shutdown()
	var got *carrier
	k.Spawn("q", func(p *Proc) {
		got = p.c
		p.WaitFor(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != used {
		t.Error("fresh kernel did not reuse the carrier")
	}
	if k.Now() != 1 {
		t.Errorf("end = %v, want 1", k.Now())
	}
}

func TestHandoffGoexitCarrierNotReused(t *testing.T) {
	var dead *carrier
	var blocked *Proc
	done := make(chan struct{})
	go func() {
		defer close(done)
		k := NewKernel()
		defer k.Shutdown()
		e := k.NewEvent("never")
		blocked = k.Spawn("blocked", func(p *Proc) { p.Wait(e) })
		k.Spawn("exit", func(p *Proc) {
			dead = p.c
			p.WaitFor(2)
			runtime.Goexit()
		})
		_ = k.Run()
		t.Error("Run returned after a process called runtime.Goexit")
	}()
	<-done
	if dead == nil || isIdle(dead) {
		t.Fatal("the carrier that ended by runtime.Goexit is on the idle stack")
	}
	if blocked.State() != StateKilled {
		t.Errorf("blocked process state = %v after Shutdown, want killed", blocked.State())
	}
	// Fresh kernels keep working and never get the dead carrier.
	for i := 0; i < 3; i++ {
		k := NewKernel()
		sum := 0
		for j := 0; j < 4; j++ {
			k.Spawn(fmt.Sprint("w", j), func(p *Proc) {
				if p.c == dead {
					t.Error("dead carrier handed out")
				}
				p.WaitFor(Time(j + 1))
				sum += j
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if sum != 6 || k.Now() != 4 {
			t.Errorf("run %d: sum %d end %v, want 6, 4ns", i, sum, k.Now())
		}
		k.Shutdown()
	}
}

// pingPong runs two processes that hand a token back and forth n times
// through events, and returns the final time.
func pingPong(n int) (Time, error) {
	k := NewKernel()
	defer k.Shutdown()
	ping, pong := k.NewEvent("ping"), k.NewEvent("pong")
	k.Spawn("pong", func(p *Proc) {
		for {
			p.Wait(ping)
			p.WaitFor(1)
			p.Notify(pong)
		}
	}).SetDaemon(true)
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.YieldDelta() // let pong reach its Wait
			p.Notify(ping)
			p.Wait(pong)
		}
	})
	err := k.Run()
	return k.Now(), err
}

func TestHandoffConcurrentKernels(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := 10 + i
				end, err := pingPong(n)
				if err != nil || end != Time(n) {
					t.Errorf("pingPong(%d) = %v, %v; want %dns, nil", n, end, err, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := idleCount(); n > maxIdleCarriers {
		t.Errorf("idle carriers = %d, above the cap %d", n, maxIdleCarriers)
	}
}

// goroutineSlack allows for goroutines that other tests left winding
// down.
const goroutineSlack = 4

// waitGoroutines polls until at most limit goroutines remain.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > limit {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want at most %d", runtime.NumGoroutine(), limit)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// blockedKernel returns a kernel of n processes parked on an event at a
// RunUntil horizon.
func blockedKernel(t *testing.T, n int) *Kernel {
	k := NewKernel()
	e := k.NewEvent("never")
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprint("p", i), func(p *Proc) { p.Wait(e) }).SetDaemon(true)
	}
	if err := k.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestHandoffGoroutineBound(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		blockedKernel(t, 64).Shutdown()
	}
	waitGoroutines(t, before+maxIdleCarriers+goroutineSlack)
}

func TestHandoffIdleCap(t *testing.T) {
	// More carriers in use at once than the idle stack holds: Shutdown
	// parks maxIdleCarriers of them and stops the rest.
	base := runtime.NumGoroutine() - idleCount()
	blockedKernel(t, maxIdleCarriers+goroutineSlack).Shutdown()
	if n := idleCount(); n != maxIdleCarriers {
		t.Errorf("idle carriers = %d, want the cap %d", n, maxIdleCarriers)
	}
	waitGoroutines(t, base+maxIdleCarriers+goroutineSlack/2)
}

// TestHandoffIdleCarrierDropsKernel checks that a parked carrier keeps
// nothing of its last process reachable: "a" ends by handing off to "b",
// which runs on a second carrier. A kernel whose processes all ended
// needs no Shutdown, so once it is dropped, what its processes reach must
// be collectable even though both carriers sit on the idle stack. The
// finalizer sits on a block that b's body holds and that points nowhere:
// one on the kernel would never run, as its processes point back at it.
func TestHandoffIdleCarrierDropsKernel(t *testing.T) {
	collected := make(chan struct{})
	func() {
		held := new([4]*int) // large enough to skip the tiny allocator
		runtime.SetFinalizer(held, func(*[4]*int) { close(collected) })
		k := NewKernel()
		k.Spawn("a", func(p *Proc) { p.WaitFor(1) })
		k.Spawn("b", func(p *Proc) {
			p.WaitFor(2)
			held[0] = nil
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}()
	for range 20 {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped kernel's processes stay reachable from an idle carrier")
}
