// Package runner is a bounded worker-pool batch-execution engine for
// running many independent simulations concurrently. The paper's whole
// argument is simulation speed; every batch workload in this repository
// (experiment sweeps, design-space exploration, the simcheck matrix,
// simfuzz soaks) consists of thousands of mutually independent kernels,
// which the runner spreads over the machine while keeping results
// deterministic:
//
//   - jobs are submitted with an implicit submission index and results are
//     delivered in submission order regardless of completion order, so any
//     output derived from them is byte-identical to a sequential run;
//   - a panicking job becomes a per-job error (PanicError) instead of a
//     crashed sweep;
//   - an optional per-job wall-clock watchdog turns a hung job into a
//     TimeoutError (the stuck goroutine is abandoned, not killed — Go
//     offers no way to preempt it — so a timed-out job may leak its
//     kernel's goroutines; see sim.Kernel.Shutdown).
//
// Each job must build its own sim.Kernel (and RTOS model instances,
// recorders, RNGs): kernels are single-threaded internally, and the
// concurrency contract is one kernel per goroutine. Jobs should defer
// Kernel.Shutdown so finished simulations release their process
// goroutines.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Pool or a Map call.
type Options struct {
	// Jobs is the number of concurrent workers; <= 0 selects
	// runtime.NumCPU(). Jobs = 1 executes strictly sequentially (in Map,
	// inline on the caller's goroutine).
	Jobs int
	// Timeout, if positive, is the per-job wall-clock watchdog: a job
	// running longer fails with a TimeoutError and its goroutine is
	// abandoned.
	Timeout time.Duration
	// Retry is the worker-loss policy: a job whose worker is lost — a
	// panic (PanicError) or a watchdog expiry (TimeoutError) — is
	// re-dispatched up to Retry more times before its error is delivered.
	// A job that merely returns an error is never retried: application
	// failures are results, only lost workers are requeued. The delivered
	// Result carries the dispatch count in Attempts, so callers can flag
	// requeued work instead of silently absorbing it. Default 0 keeps the
	// original fail-fast behavior.
	Retry int
}

func (o Options) workers() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.NumCPU()
}

// ErrTimeout is matched by errors.Is for watchdog failures.
var ErrTimeout = errors.New("runner: job exceeded watchdog timeout")

// TimeoutError reports that a job's wall-clock watchdog fired.
type TimeoutError struct {
	Index int
	Limit time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("runner: job %d exceeded watchdog timeout %v", e.Index, e.Limit)
}

// Is makes errors.Is(err, ErrTimeout) true for TimeoutErrors.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// PanicError is the per-job error a recovered panic becomes.
type PanicError struct {
	Index int
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Value)
}

// Result is one job's outcome, tagged with its submission index.
type Result[T any] struct {
	Index    int
	Value    T
	Err      error
	Wall     time.Duration // host execution time of the job (all dispatches)
	Attempts int           // dispatch count: > 1 means the job was requeued after a worker loss
}

// job pairs a submission index with its work function. The function
// takes the index, so Map hands every job the caller's fn unchanged
// instead of wrapping it in a per-job closure.
type job[T any] struct {
	index int
	fn    func(i int) (T, error)
}

// Pool runs submitted jobs on a fixed set of workers and streams results
// in submission order. Submit and Close must be called from one producer
// goroutine; Results is consumed elsewhere (consuming from the submitting
// goroutine after Close is also fine). Submit applies backpressure: it
// blocks while all workers are busy, so the reorder buffer stays bounded
// by the worker count.
type Pool[T any] struct {
	opts      Options
	jobs      chan job[T]
	collect   chan Result[T]
	results   chan Result[T]
	wg        sync.WaitGroup
	submitted int
}

// NewPool starts the workers and the in-order result collector.
func NewPool[T any](opts Options) *Pool[T] {
	n := opts.workers()
	p := &Pool[T]{
		opts:    opts,
		jobs:    make(chan job[T]),
		collect: make(chan Result[T], n),
		results: make(chan Result[T], n),
	}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	go func() {
		p.wg.Wait()
		close(p.collect)
	}()
	go p.reorder()
	return p
}

// Submit enqueues a job and returns its submission index.
func (p *Pool[T]) Submit(fn func() (T, error)) int {
	idx := p.submitted
	p.submitted++
	p.jobs <- job[T]{index: idx, fn: func(int) (T, error) { return fn() }}
	return idx
}

// Close ends submission; Results delivers the remaining outcomes and is
// then closed.
func (p *Pool[T]) Close() { close(p.jobs) }

// Results returns the in-submission-order result stream.
func (p *Pool[T]) Results() <-chan Result[T] { return p.results }

func (p *Pool[T]) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.collect <- runOne(p.opts, j)
	}
}

// reorder buffers out-of-order completions and emits results strictly by
// submission index.
func (p *Pool[T]) reorder() {
	pending := map[int]Result[T]{}
	next := 0
	for r := range p.collect {
		pending[r.Index] = r
		for {
			rdy, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			p.results <- rdy
			next++
		}
	}
	close(p.results)
}

// runOne executes one job, re-dispatching it after a worker loss (panic
// or watchdog expiry) up to opts.Retry times. Every dispatch is accounted
// in Attempts; a requeued job is therefore never silently dropped — it
// either delivers a value or its last worker-loss error, flagged with
// the dispatch count.
func runOne[T any](opts Options, j job[T]) Result[T] {
	var r Result[T]
	for attempt := 1; ; attempt++ {
		r = dispatch(opts, j)
		r.Attempts = attempt
		if r.Err == nil || attempt > opts.Retry {
			return r
		}
		var pe *PanicError
		if !errors.As(r.Err, &pe) && !errors.Is(r.Err, ErrTimeout) {
			// An error returned by the job itself is an application
			// result, not a lost worker: deliver it as-is.
			return r
		}
	}
}

// dispatch executes one job once with panic isolation and the optional
// watchdog. Without a watchdog the job runs on the calling goroutine;
// with one it runs on a goroutine of its own, which is abandoned if the
// watchdog fires first.
func dispatch[T any](opts Options, j job[T]) Result[T] {
	start := time.Now()
	if opts.Timeout <= 0 {
		r := guarded(j)
		r.Wall = time.Since(start)
		return r
	}
	done := make(chan Result[T], 1)
	go func() { done <- guarded(j) }()
	timer := time.NewTimer(opts.Timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		r.Wall = time.Since(start)
		return r
	case <-timer.C:
		return Result[T]{
			Index: j.index,
			Err:   &TimeoutError{Index: j.index, Limit: opts.Timeout},
			Wall:  time.Since(start),
		}
	}
}

// guarded runs the job function, converting a panic into a PanicError.
func guarded[T any](j job[T]) (res Result[T]) {
	res.Index = j.index
	defer func() {
		if r := recover(); r != nil {
			res.Err = &PanicError{Index: j.index, Value: r, Stack: debug.Stack()}
		}
	}()
	res.Value, res.Err = j.fn(j.index)
	return res
}

// Map runs fn for every index 0..n-1 and returns the results indexed by
// submission order — the batch counterpart of a sequential for loop.
//
// The calling goroutine is one of the Jobs workers: Map starts only
// min(Jobs, n)-1 extra goroutines, and every worker claims the next
// index from a shared counter and writes its result in place, so there
// is no channel hand-off and no reorder step. Jobs = 1 therefore runs
// fn inline, in index order, on the caller's goroutine (a Timeout still
// runs each job on a watchdog goroutine).
func Map[T any](n int, opts Options, fn func(i int) (T, error)) []Result[T] {
	out := make([]Result[T], n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			out[i] = runOne(opts, job[T]{index: i, fn: fn})
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(opts.workers(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}

// Values unwraps results into their values, preserving submission order.
// It returns the first error encountered, if any, alongside the values
// collected so far — convenient for merging per-job artifacts (e.g.
// telemetry reports) after a sweep.
func Values[T any](results []Result[T]) ([]T, error) {
	out := make([]T, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return out, r.Err
		}
		out = append(out, r.Value)
	}
	return out, nil
}

// FirstErr returns the first failed result's error, or nil.
func FirstErr[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
