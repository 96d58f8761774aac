package rtc

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
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
	// next-release instant: at any instant strictly inside a period the
	// timer queue holds a three-entry same-instant wake batch, which the
	// snapshot codec must carry in seq order.
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
	// lone task (highest priority, so first to re-push) queues the
	// earliest timer, with the trio's timers queued behind it.
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
	for _, rec := range records(r) {
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

// TestSnapshotFastPathArmed pins that a checkpoint taken with timers
// pending round-trips them exactly: Restore re-pushes every timer with
// its (at, seq) key, and the continuation stays byte-identical. Two
// queue shapes are covered — the multi-entry same-instant wake batch
// and one earliest timer queued ahead of a same-instant batch.
func TestSnapshotFastPathArmed(t *testing.T) {
	ms := sim.Millisecond
	ws := snapWorkloads()
	cases := []struct {
		workload string
		instants []Time
		timers   int // required total pending timers
	}{
		// Strictly inside each 8 ms period the trio's next releases are
		// the only pending timers, all due at one instant.
		{"timer-batch", []Time{10 * ms, 20 * ms, 30 * ms}, 3},
		// Inside (0, 3 ms) the lone tick is queued with the trio's
		// releases behind it.
		{"timer-oneshot", []Time{2 * ms}, 4},
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
				if got := s.k.timers.Len(); got != tc.timers {
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
				if got := r.k.timers.Len(); got != tc.timers {
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

// TestRestoreRejectsImpossibleTimers edits the timer lines of a
// timer-batch checkpoint taken at 10 ms into states no run can reach:
// Restore must refuse each rather than resume from it.
func TestRestoreRejectsImpossibleTimers(t *testing.T) {
	w := snapWorkloads()["timer-batch"]
	s, err := NewSession(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ti := regexp.MustCompile(`(?m)^ti at=\d+ seq=\d+ mach=\d+$`)
	if n := len(ti.FindAll(cp.State, -1)); n != 3 {
		t.Fatalf("checkpoint holds %d timer lines, want 3:\n%s", n, cp.State)
	}
	m := regexp.MustCompile(`timerseq=(\d+)`).FindSubmatch(cp.State)
	if m == nil {
		t.Fatalf("checkpoint records no timerseq:\n%s", cp.State)
	}
	timerSeq, _ := strconv.Atoi(string(m[1]))
	// Each case sets field to value on the first lines timer lines.
	cases := []struct {
		name, field, value string
		lines              int
		want               string
	}{
		{"due before now", "at", "5", 1, "before now"},
		{"one machine, two timers", "mach", "0", 3, "two timers"},
		{"seq above timerseq", "seq", strconv.Itoa(timerSeq + 1), 1, "above timerseq"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			field := regexp.MustCompile(`\b` + tc.field + `=\d+`)
			edited := 0
			state := ti.ReplaceAllFunc(cp.State, func(line []byte) []byte {
				if edited++; edited > tc.lines {
					return line
				}
				return field.ReplaceAll(line, []byte(tc.field+"="+tc.value))
			})
			if bytes.Equal(state, cp.State) {
				t.Fatal("edit left the checkpoint unchanged")
			}
			bad := *cp
			bad.State = state
			_, err := Restore(w, &bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsRecordKind: a trace record line whose kind the
// recorder cannot hold is refused with an error, not a panic.
func TestRestoreRejectsRecordKind(t *testing.T) {
	w := snapWorkloads()["timer-batch"]
	s, err := NewSession(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rec := regexp.MustCompile(`(?m)^rec (-?\d+) \d+ `)
	if rec.Find(cp.State) == nil {
		t.Fatalf("checkpoint holds no trace record:\n%s", cp.State)
	}
	for _, kind := range []string{"256", "-1"} {
		done := false
		bad := *cp
		bad.State = rec.ReplaceAllFunc(cp.State, func(line []byte) []byte {
			if done {
				return line
			}
			done = true
			return rec.ReplaceAll(line, []byte("rec ${1} "+kind+" "))
		})
		_, err := Restore(w, &bad)
		if err == nil || !strings.Contains(err.Error(), "outside 0..255") {
			t.Errorf("kind %s: Restore error = %v, want one naming the range", kind, err)
		}
	}
}
