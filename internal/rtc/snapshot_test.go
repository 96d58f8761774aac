package rtc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

var updateSnap = flag.Bool("update", false, "rewrite the checkpoint goldens under testdata/rtcsnap")

// goldenInstants is the instant each snapWorkloads case is captured at
// for TestSnapshotGolden. Together they hold machines in a time wait, a
// dispatch wait, a channel op, a cycle end, an IRQ body and the
// watchdog body.
var goldenInstants = map[string]Time{
	"priority-coarse":  12100 * sim.Microsecond,
	"rm-segmented":     12100 * sim.Microsecond,
	"rr-segmented":     12100 * sim.Microsecond,
	"edf-coarse":       12100 * sim.Microsecond,
	"fifo-itron":       12100 * sim.Microsecond,
	"priority-osek":    12100 * sim.Microsecond,
	"timer-batch":      10 * sim.Millisecond,
	"timer-oneshot":    2 * sim.Millisecond,
	"channels-generic": 5 * sim.Millisecond,
	"channels-itron":   5 * sim.Millisecond,
	"channels-osek":    5 * sim.Millisecond,
	"watchdogged":      12100 * sim.Microsecond,
}

// TestSnapshotGolden pins the rtcsnap bytes across builds: each
// snapWorkloads case, captured at its golden instant, must match
// testdata/rtcsnap/<case>.txt, and a session restored from it must
// capture the same bytes again. Regenerate intentionally with
// go test -run TestSnapshotGolden -update.
func TestSnapshotGolden(t *testing.T) {
	tags := map[string]bool{}
	for name, w := range snapWorkloads() {
		at, ok := goldenInstants[name]
		if !ok {
			t.Fatalf("case %s has no golden instant", name)
		}
		s, err := NewSession(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntil(at); err != nil {
			t.Fatalf("%s: RunUntil(%v): %v", name, at, err)
		}
		cp, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		for _, m := range regexp.MustCompile(`(?m)^f (\w+)`).FindAllSubmatch(cp.State, -1) {
			tags[string(m[1])] = true
		}
		path := filepath.Join("testdata", "rtcsnap", name+".txt")
		if *updateSnap {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, cp.State, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run: go test -run TestSnapshotGolden -update): %v", path, err)
		}
		if !bytes.Equal(cp.State, want) {
			t.Errorf("%s: checkpoint differs from %s:\n%s", name, path, cp.State)
			continue
		}
		r, err := Restore(w, cp)
		if err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		again, err := r.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot of the restored session: %v", name, err)
		}
		if !bytes.Equal(again.State, want) {
			t.Errorf("%s: restored session captures different bytes:\n%s", name, again.State)
		}
	}
	for _, tag := range []string{"tw", "wdis", "op", "end", "irq", "wd"} {
		if !tags[tag] {
			t.Errorf("no golden holds a %q frame", tag)
		}
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

// TestRestoreRejectsImpossibleFrames places frames no run can produce on
// a channels-generic checkpoint taken at 5 ms: a task service frame or
// a blocking op above the IRQ machine's body, which runs no task, and op
// frames whose op the channel's kind does not have. Restore must refuse each with an
// error rather than resume into a panic or a machine parked forever.
func TestRestoreRejectsImpossibleFrames(t *testing.T) {
	w := snapWorkloads()["channels-generic"]
	s, err := NewSession(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const irq = "stk 1\nf irq "
	if !bytes.Contains(cp.State, []byte(irq)) {
		t.Fatalf("checkpoint holds no IRQ machine at its body:\n%s", cp.State)
	}
	op := regexp.MustCompile(`(?m)^f op \d+ \d+ `)
	if op.Find(cp.State) == nil {
		t.Fatalf("checkpoint holds no op frame:\n%s", cp.State)
	}
	// aboveIRQ puts frame on the IRQ machine's stack, above its body.
	aboveIRQ := func(frame string) []byte {
		i := bytes.Index(cp.State, []byte(irq)) + len(irq)
		j := i + bytes.IndexByte(cp.State[i:], '\n') + 1
		var b bytes.Buffer
		b.Write(cp.State[:i-len(irq)])
		b.WriteString("stk 2\nf irq ")
		b.Write(cp.State[i:j])
		b.WriteString(frame + "\n")
		b.Write(cp.State[j:])
		return b.Bytes()
	}
	// opFrame rewrites the op and channel index of every op frame.
	opFrame := func(opCh string) []byte {
		return op.ReplaceAll(cp.State, []byte("f op "+opCh+" "))
	}
	cases := []struct {
		name  string
		state []byte
		want  string
	}{
		{"activate on the IRQ machine", aboveIRQ("f act 0"), "runs no task"},
		{"end cycle on the IRQ machine", aboveIRQ("f end 0 0"), "runs no task"},
		{"time wait on the IRQ machine", aboveIRQ("f tw 100 0 0 0"), "runs no task"},
		{"dispatch wait on the IRQ machine", aboveIRQ("f wdis 1"), "runs no task"},
		{"receive on the IRQ machine", aboveIRQ("f op 1 0 1 1"), "runs no task"},
		{"op outside the op set", opFrame("99 1"), "has no such op"},
		{"send on a semaphore", opFrame("0 1"), "has no such op"},
		{"acquire on a queue", opFrame("2 0"), "has no such op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *cp
			bad.State = tc.state
			_, err := Restore(w, &bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsImpossibleWaits edits machine records and timers of
// two checkpoints into waits no run can reach: a channels-generic one at
// 5 ms (tasks parked at f wdis 1, a task sleeping in a time wait, the
// IRQ machine sleeping in its body) and an rm-segmented one at 12.1 ms
// (a task in a segmented delay at f tw pc 11, one parked, one sleeping in
// a cycle end). A machine's state names its wait, so Restore must refuse
// a record whose parked/preempt flags, stack top or timer disagree with
// it, and any state a quiescent session cannot hold.
func TestRestoreRejectsImpossibleWaits(t *testing.T) {
	checkpoint := func(name string, at Time) (Workload, *Checkpoint) {
		w := snapWorkloads()[name]
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
		return w, cp
	}
	chW, chCP := checkpoint("channels-generic", 5*sim.Millisecond)
	segW, segCP := checkpoint("rm-segmented", 12100*sim.Microsecond)
	type edit struct{ old, new string }
	cases := []struct {
		name  string
		seg   bool // edit the rm-segmented checkpoint
		edits []edit
		want  string
	}{
		{"parked=false above f wdis 1", false,
			[]edit{{"m 0 state=3 timedout=true parked=true", "m 0 state=3 timedout=true parked=false"}},
			"parked=false preempt=false contradict state=3"},
		{"done with a time-wait frame and a timer", false,
			[]edit{{"m 1 state=4 ", "m 1 state=6 "}},
			"is done but has frames"},
		{"preempt=false in a segmented delay", true,
			[]edit{{"m 0 state=5 timedout=true parked=false preempt=true", "m 0 state=5 timedout=true parked=false preempt=false"}},
			"parked=false preempt=false contradict state=5"},
		{"preempt=true on a sleeping task", true,
			[]edit{{"m 2 state=4 timedout=true parked=false preempt=false", "m 2 state=4 timedout=true parked=false preempt=true"}},
			"parked=false preempt=true contradict state=4"},
		{"IRQ machine parked", false,
			[]edit{{"m 3 state=4 timedout=true parked=false", "m 3 state=3 timedout=true parked=true"}},
			"waits to be dispatched but runs no task"},
		{"parked task with a timer", false,
			[]edit{{"timers 2\n", "timers 3\nti at=6000000 seq=1 mach=0\n"}},
			"waits to be dispatched but has a timer"},
		{"parked task at f wdis 0", false,
			[]edit{{"f wdis 1\nm 1 ", "f wdis 0\nm 1 "}},
			"its top frame is not f wdis 1"},
		{"segmented delay without a timer", true,
			[]edit{{"timers 2\nti at=12600000 seq=18 mach=0\n", "timers 1\n"}},
			"is in a segmented delay but has no timer"},
		{"segmented delay at f tw pc 10", true,
			[]edit{{"f tw 600000 600000 12000000 11", "f tw 600000 600000 12000000 10"}},
			"its top frame is not f tw at pc 11"},
		{"segmented delay in a cycle end", true,
			[]edit{{"m 2 state=4 timedout=true parked=false preempt=false", "m 2 state=5 timedout=true parked=false preempt=true"}},
			"its top frame is not f tw at pc 11"},
		{"sleeping IRQ machine without a timer", false,
			[]edit{{"timers 2\n", "timers 1\n"}, {"ti at=10000000 seq=7 mach=3\n", ""}},
			"sleeps but has no timer"},
		{"done IRQ machine with a timer", false,
			[]edit{{"m 3 state=4 timedout=true parked=false preempt=false\nstk 1\nf irq 1 2\n", "m 3 state=6 timedout=true parked=false preempt=false\nstk 0\n"}},
			"is done but has a timer"},
		{"timer on a ready machine", false,
			[]edit{{"m 3 state=4 ", "m 3 state=1 "}},
			"(state=1) is in a state no quiescent session holds"},
		{"timer on a machine waiting for par children", false,
			[]edit{{"m 3 state=4 ", "m 3 state=7 "}},
			"(state=7) is in a state no quiescent session holds"},
		{"running task without a timer", false,
			[]edit{{"m 0 state=3 timedout=true parked=true", "m 0 state=2 timedout=true parked=false"}},
			"(state=2) is in a state no quiescent session holds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, cp := chW, chCP
			if tc.seg {
				w, cp = segW, segCP
			}
			state := string(cp.State)
			for _, e := range tc.edits {
				if !strings.Contains(state, e.old) {
					t.Fatalf("checkpoint holds no %q:\n%s", e.old, cp.State)
				}
				state = strings.Replace(state, e.old, e.new, 1)
			}
			bad := *cp
			bad.State = []byte(state)
			_, err := Restore(w, &bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsImpossibleChannels edits the channel records of the
// channels-* checkpoints taken at 5 ms into states no run can reach, and
// adds text no writer produces. Restore must refuse each with an error:
// a queue holding more than its capacity (which used to panic in the
// ring), a negative count, an ITRON count above its semaphore's maximum,
// an odd mailbox list, a line with a field its format lacks, and input
// after the last record.
func TestRestoreRejectsImpossibleChannels(t *testing.T) {
	checkpoints := map[string]*Checkpoint{}
	for _, name := range []string{"channels-generic", "channels-itron", "channels-osek"} {
		s, err := NewSession(snapWorkloads()[name])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntil(5 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if checkpoints[name], err = s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name, pers string // pers: the checkpoint's channels-* suffix
		old, new   string
		want       string
	}{
		{"queue above capacity", "generic", "\ncq 0\n", "\ncq 3 1 2 3\n", "cq list of 3 values overflows the capacity 2"},
		{"OSEK queue above capacity", "osek", "\noq 0\n", "\noq 3 1 2 3\n", "oq list of 3 values overflows the capacity 2"},
		{"negative semaphore count", "generic", "\ncs 0\n", "\ncs -1\n", "semaphore count -1 < 0"},
		{"negative ITRON semaphore count", "itron", "\nis 0\n", "\nis -1\n", "count -1 outside 0..1073741824"},
		{"negative OSEK semaphore count", "osek", "\nos 0\n", "\nos -2\n", "semaphore:s count -2 with 1 waiters"},
		{"ITRON count above its maximum", "itron", "\nis 0\n", "\nis 1073741825\n", "count 1073741825 outside 0..1073741824"},
		{"ITRON units beside a waiter", "itron", "\nis 0\n", "\nis 99999\n", "semaphore s count 99999 with 1 waiters"},
		{"OSEK units beside a waiter", "osek", "\nos 0\n", "\nos 3\n", "semaphore:s count 3 with 1 waiters"},
		{"odd mailbox list", "itron", "\nimm 0\n", "\nimm 3 5 0 7\n", "imm list of 3 values is not a list of pairs"},
		{"extra field on a count", "generic", "\ncs 0\n", "\ncs 0 7\n", `"cs 0 7" does not match "cs %d"`},
		{"extra field on a section head", "generic", "\nchans 2\n", "\nchans 2 junk\n", `"chans 2 junk" does not match "chans"`},
		{"line after the last record", "generic", "", "rec 0 0 0 \"cons\" \"ready\" \"running\" \"\"\n", "input after line"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := "channels-" + tc.pers
			cp := checkpoints[name]
			state := string(cp.State) + tc.new
			if tc.old != "" {
				if !strings.Contains(string(cp.State), tc.old) {
					t.Fatalf("checkpoint holds no %q:\n%s", tc.old, cp.State)
				}
				state = strings.Replace(string(cp.State), tc.old, tc.new, 1)
			}
			bad := *cp
			bad.State = []byte(state)
			_, err := Restore(snapWorkloads()[name], &bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsOutOfRange edits a task id, resource index or count of
// a channels-generic checkpoint to a value no writer produces: at 5 ms,
// with tasks ready, waiting and holding; at 18 ms, with every machine done
// and no timer, where a negative count would skip its loop unnoticed.
// Restore must refuse each with an error, not panic or resume.
func TestRestoreRejectsOutOfRange(t *testing.T) {
	w := snapWorkloads()["channels-generic"]
	checkpoints := map[sim.Time]*Checkpoint{}
	for _, at := range []sim.Time{5 * sim.Millisecond, 18 * sim.Millisecond} {
		s, err := NewSession(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if checkpoints[at], err = s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		at       sim.Time // the checkpoint's instant, in ms
		old, new string   // old is a regexp; every match becomes new
		want     string
	}{
		{"ready task id above range", 5, `\nready 2 0 13\n`, "\nready 2 99 0\n", "bad task id 99 in ready list"},
		{"negative ready task id", 5, `\nready 2 0 13\n`, "\nready 2 -1 13\n", "bad task id -1 in ready list"},
		{"holder task id above range", 5, `\nr 2 2 1\n`, "\nr 2 99 1\n", "bad task id 99 in r list"},
		{"resource index below -1", 5, ` wres=1 `, " wres=-2 ", "waits on resource -2 of 2"},
		{"negative stack depth", 18, `\nstk 0\n`, "\nstk -1\n", "machine 0 has stack depth -1"},
		{"negative timer count", 18, `\ntimers 0\n`, "\ntimers -1\n", "snapshot has -1 timers"},
		{"negative record count", 18, `(?s)\nrecs .*`, "\nrecs -1\n", "snapshot has -1 trace records"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := checkpoints[tc.at*sim.Millisecond]
			state := regexp.MustCompile(tc.old).ReplaceAllLiteral(cp.State, []byte(tc.new))
			if bytes.Equal(state, cp.State) {
				t.Fatalf("checkpoint holds no %s:\n%s", tc.old, cp.State)
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

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// TestSnapshotRestoreAllocs pins the allocations of one Snapshot and one
// Restore of a channels-generic session at 5 ms (62 trace records), so
// the codec's per-line cost cannot creep back: writing appends to one
// buffer, and reading parses each line straight into the fields it
// names. The race detector moves allocations to the heap, so the test
// does not run under it.
func TestSnapshotRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const wantSnapshot, wantRestore = 29, 53
	w := snapWorkloads()["channels-generic"]
	s, err := NewSession(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	snapshot := testing.AllocsPerRun(20, func() {
		if cp, err = s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	restore := testing.AllocsPerRun(20, func() {
		if _, err := Restore(w, cp); err != nil {
			t.Fatal(err)
		}
	})
	if snapshot != float64(wantSnapshot) || restore != float64(wantRestore) {
		t.Errorf("Snapshot allocates %.0f times and Restore %.0f, want %d and %d",
			snapshot, restore, wantSnapshot, wantRestore)
	}
}
