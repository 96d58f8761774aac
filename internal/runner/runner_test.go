package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrder: results come back in submission order even when later
// jobs finish first.
func TestMapOrder(t *testing.T) {
	const n = 64
	results := Map(n, Options{Jobs: 8}, func(i int) (int, error) {
		// Earlier jobs sleep longer, so completion order is roughly the
		// reverse of submission order.
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * i, nil
	})
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i || r.Value != i*i || r.Err != nil {
			t.Fatalf("result %d = {Index:%d Value:%d Err:%v}, want {%d %d nil}",
				i, r.Index, r.Value, r.Err, i, i*i)
		}
	}
}

// TestPoolStreamingOrder: the Pool's result stream is in submission order.
func TestPoolStreamingOrder(t *testing.T) {
	p := NewPool[int](Options{Jobs: 4})
	const n = 40
	go func() {
		for i := 0; i < n; i++ {
			i := i
			p.Submit(func() (int, error) {
				time.Sleep(time.Duration((i%5)*200) * time.Microsecond)
				return i, nil
			})
		}
		p.Close()
	}()
	next := 0
	for r := range p.Results() {
		if r.Index != next || r.Value != next {
			t.Fatalf("stream out of order: got index %d value %d, want %d", r.Index, r.Value, next)
		}
		next++
	}
	if next != n {
		t.Fatalf("stream delivered %d results, want %d", next, n)
	}
}

// TestPanicIsolation: a panicking job fails alone; the sweep completes.
func TestPanicIsolation(t *testing.T) {
	results := Map(10, Options{Jobs: 4}, func(i int) (int, error) {
		if i == 3 {
			panic("kernel blew up")
		}
		return i, nil
	})
	for i, r := range results {
		if i == 3 {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("job 3: err = %v, want PanicError", r.Err)
			}
			if pe.Index != 3 || fmt.Sprint(pe.Value) != "kernel blew up" || len(pe.Stack) == 0 {
				t.Fatalf("PanicError = {Index:%d Value:%v stack:%dB}", pe.Index, pe.Value, len(pe.Stack))
			}
			continue
		}
		if r.Err != nil || r.Value != i {
			t.Fatalf("job %d: value %d err %v", i, r.Value, r.Err)
		}
	}
}

// TestWatchdog: a hung job becomes a TimeoutError; others are unaffected.
func TestWatchdog(t *testing.T) {
	hung := make(chan struct{})
	defer close(hung)
	results := Map(4, Options{Jobs: 4, Timeout: 50 * time.Millisecond}, func(i int) (int, error) {
		if i == 1 {
			<-hung // never within the watchdog
		}
		return i, nil
	})
	if !errors.Is(results[1].Err, ErrTimeout) {
		t.Fatalf("job 1: err = %v, want ErrTimeout", results[1].Err)
	}
	var te *TimeoutError
	if !errors.As(results[1].Err, &te) || te.Index != 1 {
		t.Fatalf("job 1: err = %#v, want TimeoutError{Index:1}", results[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil || results[i].Value != i {
			t.Fatalf("job %d: value %d err %v", i, results[i].Value, results[i].Err)
		}
	}
}

// TestBoundedWorkers: concurrency never exceeds Options.Jobs.
func TestBoundedWorkers(t *testing.T) {
	const limit = 3
	var inFlight, peak int64
	Map(30, Options{Jobs: limit}, func(i int) (struct{}, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return struct{}{}, nil
	})
	if p := atomic.LoadInt64(&peak); p > limit {
		t.Fatalf("observed %d concurrent jobs, limit %d", p, limit)
	}
}

// TestSequentialIsStrictlyOrdered: Jobs=1 runs jobs one at a time in
// submission order (the degenerate sequential mode every consumer's
// -jobs 1 maps to).
func TestSequentialIsStrictlyOrdered(t *testing.T) {
	var order []int
	results := Map(10, Options{Jobs: 1}, func(i int) (int, error) {
		order = append(order, i) // safe: single worker
		return i, nil
	})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v not sequential", order)
		}
	}
}

// TestRetryRequeuesPanickedJob: with Retry=1 a job whose worker panics is
// re-dispatched exactly once, delivers its value, and is flagged via
// Attempts — the campaign server's worker-loss contract (a lost cell is
// requeued once and flagged in the receipt, never silently dropped).
func TestRetryRequeuesPanickedJob(t *testing.T) {
	var calls [4]int64
	results := Map(4, Options{Jobs: 2, Retry: 1}, func(i int) (int, error) {
		n := atomic.AddInt64(&calls[i], 1)
		if i == 2 && n == 1 {
			panic("worker lost")
		}
		return i, nil
	})
	for i, r := range results {
		wantAttempts := 1
		if i == 2 {
			wantAttempts = 2
		}
		if r.Err != nil || r.Value != i || r.Attempts != wantAttempts {
			t.Fatalf("job %d: value %d attempts %d err %v, want value %d attempts %d",
				i, r.Value, r.Attempts, r.Err, i, wantAttempts)
		}
		if got := atomic.LoadInt64(&calls[i]); got != int64(wantAttempts) {
			t.Fatalf("job %d executed %d times, want %d", i, got, wantAttempts)
		}
	}
}

// TestRetryExhausted: a job that panics on every dispatch is executed
// exactly Retry+1 times and then delivers its PanicError with the full
// dispatch count — requeued exactly once at Retry=1, never more.
func TestRetryExhausted(t *testing.T) {
	var calls int64
	results := Map(1, Options{Jobs: 1, Retry: 1}, func(i int) (int, error) {
		atomic.AddInt64(&calls, 1)
		panic("always lost")
	})
	var pe *PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("err = %v, want PanicError", results[0].Err)
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Fatalf("job executed %d times, want exactly 2 (requeued exactly once)", got)
	}
	if results[0].Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", results[0].Attempts)
	}
}

// TestRetryIgnoresPlainErrors: an error returned by the job is an
// application result, not a worker loss — never retried.
func TestRetryIgnoresPlainErrors(t *testing.T) {
	var calls int64
	boom := errors.New("boom")
	results := Map(1, Options{Jobs: 1, Retry: 3}, func(i int) (int, error) {
		atomic.AddInt64(&calls, 1)
		return 0, boom
	})
	if !errors.Is(results[0].Err, boom) || results[0].Attempts != 1 {
		t.Fatalf("err %v attempts %d, want boom after 1 attempt", results[0].Err, results[0].Attempts)
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Fatalf("job executed %d times, want 1", got)
	}
}

// TestRetryTimeout: a watchdog expiry is a worker loss too — the job is
// re-dispatched and can succeed on its second lease.
func TestRetryTimeout(t *testing.T) {
	hung := make(chan struct{})
	defer close(hung)
	var calls int64
	results := Map(1, Options{Jobs: 1, Timeout: 30 * time.Millisecond, Retry: 1}, func(i int) (int, error) {
		if atomic.AddInt64(&calls, 1) == 1 {
			<-hung // first lease never returns within the watchdog
		}
		return 7, nil
	})
	if results[0].Err != nil || results[0].Value != 7 || results[0].Attempts != 2 {
		t.Fatalf("result = {v:%d attempts:%d err:%v}, want {7 2 nil}",
			results[0].Value, results[0].Attempts, results[0].Err)
	}
}

// TestRetryDefaultOff: the zero Options never retries — existing callers
// keep fail-fast semantics.
func TestRetryDefaultOff(t *testing.T) {
	var calls int64
	results := Map(1, Options{Jobs: 1}, func(i int) (int, error) {
		atomic.AddInt64(&calls, 1)
		panic("lost")
	})
	var pe *PanicError
	if !errors.As(results[0].Err, &pe) || atomic.LoadInt64(&calls) != 1 || results[0].Attempts != 1 {
		t.Fatalf("calls %d attempts %d err %v, want 1 execution and PanicError",
			atomic.LoadInt64(&calls), results[0].Attempts, results[0].Err)
	}
}

func TestMapEmptyAndErrors(t *testing.T) {
	if got := Map(0, Options{}, func(i int) (int, error) { return 0, nil }); len(got) != 0 {
		t.Fatalf("Map(0) returned %d results", len(got))
	}
	boom := errors.New("boom")
	results := Map(3, Options{Jobs: 2}, func(i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if err := FirstErr(results); !errors.Is(err, boom) {
		t.Fatalf("FirstErr = %v, want boom", err)
	}
}

// TestMapJobsOneIsInline: Jobs=1 runs every job on the caller's
// goroutine — no worker goroutine is started, so the goroutine count
// seen from inside fn is the caller's own.
func TestMapJobsOneIsInline(t *testing.T) {
	base := runtime.NumGoroutine()
	results := Map(20, Options{Jobs: 1}, func(i int) (int, error) {
		return runtime.NumGoroutine(), nil
	})
	for i, r := range results {
		if r.Err != nil || r.Value != base {
			t.Fatalf("job %d: %d goroutines inside fn (err %v), want %d", i, r.Value, r.Err, base)
		}
	}
}

// TestMapAllocs pins Map's own cost at Jobs=1: the result slice, the
// shared index counter, the worker loop and its WaitGroup — nothing per
// job.
func TestMapAllocs(t *testing.T) {
	fn := func(i int) (int, error) { return i, nil }
	allocs := testing.AllocsPerRun(50, func() {
		Map(60, Options{Jobs: 1}, fn)
	})
	if allocs != 4 {
		t.Fatalf("Map(60, Jobs: 1) allocates %.0f times per call, want 4", allocs)
	}
}

// TestMapWorkersCappedAtN: with more workers requested than jobs, Map
// starts at most n-1 goroutines besides the caller.
func TestMapWorkersCappedAtN(t *testing.T) {
	const n = 3
	base := runtime.NumGoroutine()
	var peak int64
	Map(n, Options{Jobs: 16}, func(i int) (struct{}, error) {
		time.Sleep(5 * time.Millisecond)
		cur := int64(runtime.NumGoroutine())
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		return struct{}{}, nil
	})
	if extra := int(atomic.LoadInt64(&peak)) - base; extra > n-1 {
		t.Fatalf("Map(%d, Jobs: 16) ran with %d extra goroutines, want at most %d", n, extra, n-1)
	}
}

// TestJobsOneRetryAndTimeout: the worker-loss policy holds when the
// caller's goroutine is the only worker — a panicking job is requeued
// and recovers, a job whose first lease hangs is requeued after its
// watchdog fires, and one that always hangs delivers its TimeoutError
// after Retry+1 leases without blocking the jobs behind it.
func TestJobsOneRetryAndTimeout(t *testing.T) {
	hung := make(chan struct{})
	defer close(hung)
	var calls [4]int64
	results := Map(4, Options{Jobs: 1, Timeout: 30 * time.Millisecond, Retry: 1}, func(i int) (int, error) {
		c := atomic.AddInt64(&calls[i], 1)
		switch {
		case i == 0 && c == 1:
			panic("worker lost")
		case i == 1 && c == 1, i == 2:
			<-hung
		}
		return i, nil
	})
	for i, want := range []struct {
		attempts int
		timeout  bool
	}{{2, false}, {2, false}, {2, true}, {1, false}} {
		r := results[i]
		if r.Attempts != want.attempts || errors.Is(r.Err, ErrTimeout) != want.timeout {
			t.Fatalf("job %d: attempts %d err %v, want attempts %d timeout %t",
				i, r.Attempts, r.Err, want.attempts, want.timeout)
		}
		if !want.timeout && (r.Err != nil || r.Value != i) {
			t.Fatalf("job %d: value %d err %v", i, r.Value, r.Err)
		}
	}
}
