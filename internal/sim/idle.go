package sim

import "sync"

// idleStack is a capped, mutex-guarded stack of parked values shared by
// all kernels: the idle Procs and the idle carriers. Unlike a sync.Pool,
// which every garbage collection empties, it keeps what it holds, so the
// allocations of a run do not depend on where collections fall, and a
// parked carrier's goroutine is never lost.
type idleStack[T any] struct {
	mu    sync.Mutex
	items []*T
	max   int
}

// get pops a parked value, or returns nil when none is parked.
func (s *idleStack[T]) get() *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.items)
	if n == 0 {
		return nil
	}
	v := s.items[n-1]
	s.items[n-1] = nil
	s.items = s.items[:n-1]
	return v
}

// put parks v, or reports false when the stack is full.
func (s *idleStack[T]) put(v *T) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) >= s.max {
		return false
	}
	s.items = append(s.items, v)
	return true
}
