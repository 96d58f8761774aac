package rtc

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// snapWorkloads is a matrix of workloads covering every frame type,
// channel implementation, and personality the snapshot codec must carry.
func snapWorkloads() map[string]Workload {
	ms := sim.Millisecond
	us := sim.Microsecond
	periodicMix := func(pol string, q Time, tm core.TimeModel, pers string) Workload {
		return Workload{
			Policy: pol, Quantum: q, TimeModel: tm, Personality: pers,
			Trace:   true,
			Horizon: 40 * ms,
			Tasks: []TaskDef{
				{Name: "fast", Type: "periodic", Prio: 1, Period: 4 * ms, Segments: []Time{600 * us, 300 * us}},
				{Name: "mid", Type: "periodic", Prio: 2, Period: 6 * ms, Segments: []Time{900 * us}},
				{Name: "slow", Type: "periodic", Prio: 3, Period: 10 * ms, Cycles: 3, Segments: []Time{1500 * us}},
			},
		}
	}
	channelMix := func(pers string) Workload {
		return Workload{
			Policy: "priority", Personality: pers, Trace: true,
			Horizon: 30 * ms,
			Channels: []ChannelDef{
				{Name: "q", Kind: "queue", Arg: 2},
				{Name: "s", Kind: "semaphore", Arg: 0},
			},
			Tasks: []TaskDef{
				{Name: "prod", Type: "aperiodic", Prio: 2, Repeat: 6, Ops: []Op{
					{Kind: "delay", Dur: 500 * us},
					{Kind: "send", Ch: "q"},
				}},
				{Name: "cons", Type: "aperiodic", Prio: 1, Repeat: 6, Ops: []Op{
					{Kind: "recv", Ch: "q"},
					{Kind: "delay", Dur: 800 * us},
				}},
				{Name: "isr-bh", Type: "aperiodic", Prio: 0, Repeat: 3, Ops: []Op{
					{Kind: "acquire", Ch: "s"},
					{Kind: "delay", Dur: 200 * us},
				}},
			},
			IRQs: []IRQDef{{Name: "nic", Sem: "s", At: 3 * ms, Every: 7 * ms, Count: 3}},
		}
	}
	// timerBatch parks three zero-compute tick tasks on the SAME
	// next-release instant. The wheel part stays empty, so every re-push
	// re-arms the front slot and its same-instant successors batch onto
	// it: at any instant strictly inside a period the timewheel front
	// slot holds a three-entry wake batch — the fast-path state the
	// snapshot codec must carry (see timewheel.FastLen).
	timerBatch := func() Workload {
		return Workload{
			Policy: "priority", Trace: true,
			Horizon: 40 * ms,
			Tasks: []TaskDef{
				{Name: "b0", Type: "periodic", Prio: 1, Period: 8 * ms},
				{Name: "b1", Type: "periodic", Prio: 2, Period: 8 * ms},
				{Name: "b2", Type: "periodic", Prio: 3, Period: 8 * ms},
			},
		}
	}
	// timerOneshot adds a short-period tick ahead of the batch: at t=0 the
	// lone task (highest priority, so first to re-push) arms the one-shot
	// earliest-deadline slot while the trio's timers land in the wheel
	// part behind it.
	timerOneshot := func() Workload {
		w := timerBatch()
		w.Tasks = append([]TaskDef{
			{Name: "lone", Type: "periodic", Prio: 0, Period: 3 * ms},
		}, w.Tasks...)
		return w
	}
	return map[string]Workload{
		"priority-coarse":  periodicMix("priority", 0, core.TimeModelCoarse, ""),
		"rm-segmented":     periodicMix("rm", 0, core.TimeModelSegmented, ""),
		"rr-segmented":     periodicMix("rr", 2*ms, core.TimeModelSegmented, ""),
		"edf-coarse":       periodicMix("edf", 0, core.TimeModelCoarse, ""),
		"fifo-itron":       periodicMix("fifo", 0, core.TimeModelCoarse, "itron"),
		"priority-osek":    periodicMix("priority", 0, core.TimeModelSegmented, "osek"),
		"timer-batch":      timerBatch(),
		"timer-oneshot":    timerOneshot(),
		"channels-generic": channelMix(""),
		"channels-itron":   channelMix("itron"),
		"channels-osek":    channelMix("osek"),
		"watchdogged": func() Workload {
			w := periodicMix("priority", 0, core.TimeModelSegmented, "")
			w.WatchdogWindow = 20 * ms
			return w
		}(),
	}
}

// serializeResult flattens a Result into comparable bytes: every trace
// record, the stats, the end time, the error text, and per-task outcomes.
func serializeResult(r *Result) []byte {
	var b bytes.Buffer
	for _, rec := range r.Records {
		fmt.Fprintf(&b, "%s\n", rec.String())
	}
	fmt.Fprintf(&b, "stats %+v end %v pers %s\n", r.Stats, r.End, r.Personality)
	fmt.Fprintf(&b, "err %v diag %v cons %v\n", r.Err, r.Diag, r.Conservation)
	for _, tr := range r.Tasks {
		fmt.Fprintf(&b, "task %+v\n", tr)
	}
	return b.Bytes()
}

// TestSnapshotRestoreEquivalence is the engine-level checkpoint oracle:
// snapshot at several instants, restore into a fresh session, run to the
// horizon, and require the full Result byte-identical to the
// uninterrupted run.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for name, w := range snapWorkloads() {
		t.Run(name, func(t *testing.T) {
			want := serializeResult(Run(w))
			for _, num := range []Time{1, 2, 3} {
				at := w.Horizon * num / 4
				s, err := NewSession(w)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				if err := s.RunUntil(at); err != nil {
					t.Fatalf("RunUntil(%v): %v", at, err)
				}
				cp, err := s.Snapshot()
				if err != nil {
					t.Fatalf("Snapshot at %v: %v", at, err)
				}
				if cp.At != s.Now() || cp.At > at {
					t.Fatalf("checkpoint At = %v, session now %v, limit %v", cp.At, s.Now(), at)
				}
				r, err := Restore(w, cp)
				if err != nil {
					t.Fatalf("Restore at %v: %v", at, err)
				}
				r.RunUntil(w.Horizon)
				if got := serializeResult(r.Finish()); !bytes.Equal(got, want) {
					t.Errorf("restored run at %v diverges from uninterrupted run:\n--- restored\n%s\n--- uninterrupted\n%s",
						at, got, want)
				}
				// The snapshotted session must be unperturbed: finishing it
				// must reproduce the baseline too.
				s.RunUntil(w.Horizon)
				if got := serializeResult(s.Finish()); !bytes.Equal(got, want) {
					t.Errorf("original session diverges after Snapshot at %v", at)
				}
			}
		})
	}
}

// TestSnapshotFastPathArmed pins that a checkpoint taken while the
// timewheel fast path is engaged round-trips it exactly: Restore
// re-pushes timers in (at, seq) order, so the earliest chain re-forms
// the front slot at the same depth, and the continuation stays
// byte-identical. Both fast-path shapes are covered — the multi-entry
// same-instant wake batch and the one-shot earliest timer armed ahead
// of a populated wheel part.
func TestSnapshotFastPathArmed(t *testing.T) {
	ms := sim.Millisecond
	ws := snapWorkloads()
	cases := []struct {
		workload string
		instants []Time
		fastLen  int // required front-slot depth at each instant
		timers   int // required total pending timers
	}{
		// Strictly inside each 8 ms period the trio's next releases sit
		// batched in the front slot and the wheel part is empty.
		{"timer-batch", []Time{10 * ms, 20 * ms, 30 * ms}, 3, 3},
		// Inside (0, 3 ms) the lone tick is armed one-shot with the
		// trio's releases queued behind it in the wheel part.
		{"timer-oneshot", []Time{2 * ms}, 1, 4},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			w := ws[tc.workload]
			want := serializeResult(Run(w))
			for _, at := range tc.instants {
				s, err := NewSession(w)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				if err := s.RunUntil(at); err != nil {
					t.Fatalf("RunUntil(%v): %v", at, err)
				}
				if got := s.k.wheel.FastLen(); got != tc.fastLen {
					t.Fatalf("at %v: front slot holds %d entries, want %d", at, got, tc.fastLen)
				}
				if got := s.k.wheel.Len(); got != tc.timers {
					t.Fatalf("at %v: %d pending timers, want %d", at, got, tc.timers)
				}
				cp, err := s.Snapshot()
				if err != nil {
					t.Fatalf("Snapshot at %v: %v", at, err)
				}
				r, err := Restore(w, cp)
				if err != nil {
					t.Fatalf("Restore at %v: %v", at, err)
				}
				if got := r.k.wheel.FastLen(); got != tc.fastLen {
					t.Fatalf("restored at %v: front slot holds %d entries, want %d", at, got, tc.fastLen)
				}
				if got := r.k.wheel.Len(); got != tc.timers {
					t.Fatalf("restored at %v: %d pending timers, want %d", at, got, tc.timers)
				}
				r.RunUntil(w.Horizon)
				if got := serializeResult(r.Finish()); !bytes.Equal(got, want) {
					t.Errorf("restored run at %v diverges from uninterrupted run:\n--- restored\n%s\n--- uninterrupted\n%s",
						at, got, want)
				}
			}
		})
	}
}

// TestSnapshotDeterministic pins the byte form: two independent sessions
// paused at the same instant produce identical checkpoints, so State can
// double as a state digest.
func TestSnapshotDeterministic(t *testing.T) {
	for name, w := range snapWorkloads() {
		t.Run(name, func(t *testing.T) {
			at := w.Horizon / 2
			var states [][]byte
			for i := 0; i < 2; i++ {
				s, err := NewSession(w)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunUntil(at); err != nil {
					t.Fatal(err)
				}
				cp, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				states = append(states, cp.State)
			}
			if !bytes.Equal(states[0], states[1]) {
				t.Errorf("two sessions at t=%v produced different snapshot bytes", at)
			}
		})
	}
}

// TestSnapshotFork exercises the design-space fork: one shared prefix,
// restored under several policies. The same-policy fork must match the
// uninterrupted run byte for byte; a different policy must still run to
// the horizon cleanly.
func TestSnapshotFork(t *testing.T) {
	base := snapWorkloads()["priority-coarse"]
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	forkAt := base.Horizon / 3
	if err := s.RunUntil(forkAt); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	same, err := Restore(base, cp)
	if err != nil {
		t.Fatal(err)
	}
	same.RunUntil(base.Horizon)
	if got, want := serializeResult(same.Finish()), serializeResult(Run(base)); !bytes.Equal(got, want) {
		t.Errorf("same-policy fork diverges from uninterrupted run")
	}

	for _, variant := range []struct {
		pol string
		q   Time
	}{{"rr", 2 * sim.Millisecond}, {"fifo", 0}, {"edf", 0}} {
		fw := base
		fw.Policy, fw.Quantum = variant.pol, variant.q
		f, err := Restore(fw, cp)
		if err != nil {
			t.Fatalf("fork to %s: %v", variant.pol, err)
		}
		if err := f.RunUntil(fw.Horizon); err != nil {
			t.Fatalf("fork to %s failed: %v", variant.pol, err)
		}
		res := f.Finish()
		if res.End != fw.Horizon {
			t.Errorf("fork to %s ended at %v, want %v", variant.pol, res.End, fw.Horizon)
		}
		if res.Conservation != nil {
			t.Errorf("fork to %s violates time conservation: %v", variant.pol, res.Conservation)
		}
	}
}

// TestRestoreStructureMismatch: any structural edit must be rejected,
// while the fork knobs (Policy, Quantum, Horizon) must not.
func TestRestoreStructureMismatch(t *testing.T) {
	base := snapWorkloads()["channels-generic"]
	s, err := NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(base.Horizon / 2); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	perturb := map[string]func(*Workload){
		"task-renamed":    func(w *Workload) { w.Tasks[0].Name = "renamed" },
		"task-dropped":    func(w *Workload) { w.Tasks = w.Tasks[:len(w.Tasks)-1] },
		"op-added":        func(w *Workload) { w.Tasks[0].Ops = append(w.Tasks[0].Ops, Op{Kind: "delay", Dur: 1}) },
		"channel-resized": func(w *Workload) { w.Channels[0].Arg = 9 },
		"irq-shifted":     func(w *Workload) { w.IRQs[0].At += sim.Millisecond },
		"personality":     func(w *Workload) { w.Personality = "itron" },
		"time-model":      func(w *Workload) { w.TimeModel = core.TimeModelSegmented },
		"trace-off":       func(w *Workload) { w.Trace = false },
	}
	for name, mutate := range perturb {
		fw := base
		fw.Tasks = append([]TaskDef(nil), base.Tasks...)
		fw.Channels = append([]ChannelDef(nil), base.Channels...)
		fw.IRQs = append([]IRQDef(nil), base.IRQs...)
		mutate(&fw)
		if _, err := Restore(fw, cp); err == nil {
			t.Errorf("%s: Restore accepted a structurally different workload", name)
		}
	}

	fw := base
	fw.Policy, fw.Quantum, fw.Horizon = "rr", 2*sim.Millisecond, base.Horizon*2
	if _, err := Restore(fw, cp); err != nil {
		t.Errorf("policy/quantum/horizon fork rejected: %v", err)
	}
}

// TestSnapshotRejectsStoppedRun: a failed session has no resumable state.
func TestSnapshotRejectsStoppedRun(t *testing.T) {
	w := Workload{
		Policy:  "priority",
		Horizon: 10 * sim.Millisecond,
		Channels: []ChannelDef{
			{Name: "never", Kind: "semaphore", Arg: 0},
		},
		Tasks: []TaskDef{
			{Name: "stuck", Type: "aperiodic", Prio: 1, Ops: []Op{{Kind: "acquire", Ch: "never"}}},
		},
	}
	s, err := NewSession(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(w.Horizon); err == nil {
		t.Fatal("expected a deadlock error")
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("Snapshot succeeded on a stopped run")
	}
}

// TestSnapshotITRONHandoff captures an ITRON mailbox hand-off in flight:
// a send resumed the waiting receiver, which a higher-priority sender
// keeps off the CPU, so the message sits in the receiver's tcb. The
// checkpoint must carry it: a session restored from it snapshots to the
// same bytes and finishes like the uninterrupted run.
func TestSnapshotITRONHandoff(t *testing.T) {
	w := Workload{
		Policy: "priority", Personality: "itron", Trace: true,
		Horizon:  sim.Millisecond,
		Channels: []ChannelDef{{Name: "q", Kind: "queue", Arg: 1}},
		Tasks: []TaskDef{
			{Name: "recv", Type: "aperiodic", Prio: 2, Ops: []Op{{Kind: "recv", Ch: "q"}}},
			{Name: "send", Type: "aperiodic", Prio: 1, Start: 10, Ops: []Op{
				{Kind: "send", Ch: "q"}, {Kind: "delay", Dur: 100},
			}},
		},
	}
	s, err := NewSession(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(cp.State, []byte("\nitcb 3 0 1 0\n")) {
		t.Fatalf("checkpoint at t=50 holds no hand-off to the receiver:\n%s", cp.State)
	}
	r, err := Restore(w, cp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.State, cp.State) {
		t.Fatalf("restored session snapshots differently:\n%s\nwant:\n%s", again.State, cp.State)
	}
	r.RunUntil(w.Horizon)
	if got, want := serializeResult(r.Finish()), serializeResult(Run(w)); !bytes.Equal(got, want) {
		t.Fatalf("restored run diverges:\n%s\nwant:\n%s", got, want)
	}
}
