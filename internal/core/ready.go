package core

// readyList is the ready queue: the runnable tasks in no particular
// order, each knowing its slot (Task.rqIx). The dispatcher scans it for
// the task the policy runs first — the least under the policy's order,
// ties to the lowest ready sequence number (FIFO). Insertion and removal
// are O(1); ranking changes (priority inheritance, deadline overrides,
// the rate-monotonic assignment) need no re-indexing.
type readyList []*Task

// Do calls f for every ready task, in list order.
func (l *readyList) Do(f func(*Task)) {
	for _, t := range *l {
		f(t)
	}
}

func (l *readyList) push(t *Task, seq int) {
	t.readySeq, t.rqIx = seq, len(*l)
	*l = append(*l, t)
}

// remove drops t and reports whether it was queued.
func (l *readyList) remove(t *Task) bool {
	i := t.rqIx
	if i < 0 {
		return false
	}
	last := len(*l) - 1
	moved := (*l)[last]
	(*l)[i], moved.rqIx = moved, i
	(*l)[last] = nil
	*l = (*l)[:last]
	t.rqIx = -1
	return true
}

func (l *readyList) clear() {
	for _, t := range *l {
		t.rqIx = -1
	}
	clear(*l)
	*l = (*l)[:0]
}

// best returns the ready task the policy dispatches first (nil if none).
// One loop per ordering keeps the two-way comparison out of the scan:
// each replaces best exactly when Less(t, best) || (!Less(best, t) &&
// t.readySeq < best.readySeq).
func (s *Sched) best() *Task {
	var best *Task
	switch s.policy.kind {
	case polFCFS:
		for _, t := range s.rq {
			if best == nil || t.readySeq < best.readySeq {
				best = t
			}
		}
	case polEDF:
		for _, t := range s.rq {
			switch {
			case best == nil:
				best = t
			case t.deadline != best.deadline:
				if t.deadline < best.deadline {
					best = t
				}
			case t.prio != best.prio:
				if t.prio < best.prio {
					best = t
				}
			case t.readySeq < best.readySeq:
				best = t
			}
		}
	case polCustom:
		for _, t := range s.rq {
			if best == nil || s.policy.Less(t, best) || (!s.policy.Less(best, t) && t.readySeq < best.readySeq) {
				best = t
			}
		}
	default: // priority, rr, rm
		for _, t := range s.rq {
			switch {
			case best == nil:
				best = t
			case t.prio != best.prio:
				if t.prio < best.prio {
					best = t
				}
			case t.readySeq < best.readySeq:
				best = t
			}
		}
	}
	return best
}
