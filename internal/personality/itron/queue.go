package itron

import "repro/internal/core"

// waitQueue holds tasks blocked on one kernel object, ordered FIFO
// (TA_TFIFO) or by current task priority with FIFO tie-break (TA_TPRI) —
// the µITRON queueing attribute that decides wakeup ordering. The
// backing array is reused across steady-state block/release cycles so
// object waits stay allocation-free once warm.
type waitQueue struct {
	pri bool
	q   []*tcb
}

func newWaitQueue(attr Attr) waitQueue { return waitQueue{pri: attr&TATPri != 0} }

func (w *waitQueue) empty() bool { return len(w.q) == 0 }

// enqueue inserts tc at its ordering position and records the membership
// back-pointer used by timeout/rel_wai removal.
func (w *waitQueue) enqueue(tc *tcb) {
	tc.wait = w
	if !w.pri {
		w.q = append(w.q, tc)
		return
	}
	// Priority order: before the first strictly lower-priority (greater
	// value) entry; equal priorities stay FIFO.
	i := len(w.q)
	for j, x := range w.q {
		if x.task.Priority() > tc.task.Priority() {
			i = j
			break
		}
	}
	w.q = append(w.q, nil)
	copy(w.q[i+1:], w.q[i:])
	w.q[i] = tc
}

// tasks lists the waiting tasks in queue order.
func (w *waitQueue) tasks() []*core.Task {
	ts := make([]*core.Task, len(w.q))
	for i, tc := range w.q {
		ts[i] = tc.task
	}
	return ts
}

// pop removes and returns the queue head (nil when empty).
func (w *waitQueue) pop() *tcb {
	if len(w.q) == 0 {
		return nil
	}
	tc := w.q[0]
	copy(w.q, w.q[1:])
	w.q = w.q[:len(w.q)-1]
	tc.wait = nil
	return tc
}

// remove drops tc from the queue if present.
func (w *waitQueue) remove(tc *tcb) bool {
	for i, x := range w.q {
		if x == tc {
			copy(w.q[i:], w.q[i+1:])
			w.q = w.q[:len(w.q)-1]
			tc.wait = nil
			return true
		}
	}
	return false
}

// requeue re-inserts tc after a priority change (chg_pri on a task
// blocked in a TA_TPRI queue re-orders it; µITRON 4.0 chg_pri moves the
// task behind equal-priority waiters).
func (w *waitQueue) requeue(tc *tcb) {
	if !w.pri {
		return
	}
	if w.remove(tc) {
		w.enqueue(tc)
	}
}
