package rtc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// irqQueueWorkload feeds a handler task from an interrupt-released
// semaphore; the handler forwards each event through a bounded queue to
// a consumer, beside a periodic background task.
func irqQueueWorkload() Workload {
	return Workload{
		Channels: []ChannelDef{
			{Name: "irq", Kind: "semaphore", Arg: 0},
			{Name: "q", Kind: "queue", Arg: 2},
		},
		Tasks: []TaskDef{
			{Name: "handler", Type: "aperiodic", Prio: 1, Repeat: 4, Ops: []Op{
				{Kind: "acquire", Ch: "irq"},
				{Kind: "delay", Dur: 20 * sim.Microsecond},
				{Kind: "send", Ch: "q"},
			}},
			{Name: "consumer", Type: "aperiodic", Prio: 3, Start: 50 * sim.Microsecond, Repeat: 4, Ops: []Op{
				{Kind: "recv", Ch: "q"},
				{Kind: "delay", Dur: 150 * sim.Microsecond},
			}},
			{Name: "bg", Type: "periodic", Prio: 2, Period: 400 * sim.Microsecond, Cycles: 6,
				Segments: []Time{60 * sim.Microsecond, 40 * sim.Microsecond}},
		},
		IRQs:           []IRQDef{{Name: "tick", Sem: "irq", At: 100 * sim.Microsecond, Every: 250 * sim.Microsecond, Count: 4}},
		WatchdogWindow: 5 * sim.Millisecond,
		Horizon:        5 * sim.Millisecond,
	}
}

// deadlockWorkload is two tasks taking two binary semaphores in opposite
// orders: both engines must end it with the same diagnosis.
func deadlockWorkload() Workload {
	return Workload{
		Channels: []ChannelDef{
			{Name: "s1", Kind: "semaphore", Arg: 1},
			{Name: "s2", Kind: "semaphore", Arg: 1},
		},
		Tasks: []TaskDef{
			{Name: "a", Type: "aperiodic", Prio: 1, Ops: []Op{
				{Kind: "acquire", Ch: "s1"},
				{Kind: "delay", Dur: 10 * sim.Microsecond},
				{Kind: "acquire", Ch: "s2"},
			}},
			{Name: "b", Type: "aperiodic", Prio: 2, Start: 5 * sim.Microsecond, Ops: []Op{
				{Kind: "acquire", Ch: "s2"},
				{Kind: "acquire", Ch: "s1"},
			}},
		},
		Horizon: sim.Millisecond,
	}
}

// preemptPeerWorkload has an interrupt-released handler preempt task a
// while a's equal-priority peer b is ready: where a re-enters its level
// decides who runs next, and OSEK (§4.6.5) puts it at the front. a's
// work is split into segments so the preemption lands under the coarse
// time model too.
func preemptPeerWorkload() Workload {
	work := []Op{
		{Kind: "delay", Dur: 30 * sim.Microsecond},
		{Kind: "delay", Dur: 30 * sim.Microsecond},
		{Kind: "delay", Dur: 40 * sim.Microsecond},
	}
	return Workload{
		Channels: []ChannelDef{{Name: "irq", Kind: "semaphore", Arg: 0}},
		Tasks: []TaskDef{
			{Name: "handler", Type: "aperiodic", Prio: 1, Ops: []Op{
				{Kind: "acquire", Ch: "irq"},
				{Kind: "delay", Dur: 20 * sim.Microsecond},
			}},
			{Name: "a", Type: "aperiodic", Prio: 2, Ops: work},
			{Name: "b", Type: "aperiodic", Prio: 2, Ops: work},
		},
		IRQs:    []IRQDef{{Name: "tick", Sem: "irq", At: 50 * sim.Microsecond, Count: 1}},
		Horizon: sim.Millisecond,
	}
}

// TestEngineEquivalenceRunGoroutine runs hand-written flat workloads —
// the shapes taskset and simcheck never send: Repeat > 1, release ops,
// an interrupt-fed semaphore next to a queue, a deadlock, a preempted
// task with an equal-priority peer — on both engines under every
// personality and both time models, and requires the same records,
// statistics, end time, per-task results, diagnosis, conservation
// verdict and telemetry stream.
func TestEngineEquivalenceRunGoroutine(t *testing.T) {
	cases := map[string]Workload{
		"ping-pong":    pingPong(40),
		"irq-queue":    irqQueueWorkload(),
		"deadlock":     deadlockWorkload(),
		"preempt-peer": preemptPeerWorkload(),
	}
	for name, base := range cases {
		for _, pers := range []string{"generic", "itron", "osek"} {
			for _, tm := range []core.TimeModel{core.TimeModelCoarse, core.TimeModelSegmented} {
				w := base
				w.Personality, w.TimeModel, w.Trace = pers, tm, true
				tag := fmt.Sprintf("%s/%s/%s", name, pers, tm)
				var wantC, gotC telemetry.Collector
				want, got := Run(w, telemetry.NewBus(&wantC)), RunGoroutine(w, telemetry.NewBus(&gotC))
				if want.Trace.Len() == 0 {
					t.Fatalf("%s: rtc recorded no trace", tag)
				}
				if diff := compareResults(got, want); diff != "" {
					t.Errorf("%s: RunGoroutine diverges from Run: %s", tag, diff)
				}
				if diff := compareStreams(gotC.Events, wantC.Events); diff != "" {
					t.Errorf("%s: RunGoroutine's telemetry stream diverges from Run's: %s", tag, diff)
				}
			}
		}
	}
}

// compareStreams describes the first difference between two telemetry
// streams, or returns "".
func compareStreams(got, want []telemetry.Event) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("event %d: %s, want %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d events, want %d", len(got), len(want))
	}
	return ""
}

// records returns a result's trace records (none for an untraced run).
func records(r *Result) []trace.Record {
	if r.Trace == nil {
		return nil
	}
	return r.Trace.Records()
}

// compareResults describes the first difference between two results, or
// returns "".
func compareResults(got, want *Result) string {
	if s, w := fmt.Sprint(got.Err), fmt.Sprint(want.Err); s != w {
		return fmt.Sprintf("err %s, want %s", s, w)
	}
	if got.End != want.End || got.Stats != want.Stats || got.Personality != want.Personality {
		return fmt.Sprintf("end/stats/personality %v %+v %s, want %v %+v %s",
			got.End, got.Stats, got.Personality, want.End, want.Stats, want.Personality)
	}
	gotRecs, wantRecs := records(got), records(want)
	if len(gotRecs) != len(wantRecs) {
		return fmt.Sprintf("%d records, want %d", len(gotRecs), len(wantRecs))
	}
	for i := range gotRecs {
		if gotRecs[i] != wantRecs[i] {
			return fmt.Sprintf("record %d: %s, want %s", i, gotRecs[i], wantRecs[i])
		}
	}
	if len(got.Tasks) != len(want.Tasks) {
		return fmt.Sprintf("%d tasks, want %d", len(got.Tasks), len(want.Tasks))
	}
	for i := range got.Tasks {
		if got.Tasks[i] != want.Tasks[i] {
			return fmt.Sprintf("task %d: %+v, want %+v", i, got.Tasks[i], want.Tasks[i])
		}
	}
	if s, w := fmt.Sprint(got.Diag), fmt.Sprint(want.Diag); s != w {
		return fmt.Sprintf("diagnosis %s, want %s", s, w)
	}
	if s, w := fmt.Sprint(got.Conservation), fmt.Sprint(want.Conservation); s != w {
		return fmt.Sprintf("conservation %s, want %s", s, w)
	}
	return ""
}

// TestRunGoroutineRejectsHierarchical: a workload with a behavior tree
// is sdl's to elaborate, not the flat runner's.
func TestRunGoroutineRejectsHierarchical(t *testing.T) {
	w := Workload{
		Behaviors: []BehaviorDef{{Name: "main", Kind: "leaf", Stmts: []Op{{Kind: "delay", Dur: 10}}}},
		Top:       "main",
		Horizon:   sim.Millisecond,
	}
	if r := Run(w); r.Err != nil {
		t.Fatalf("rtc rejects the hierarchical workload itself: %v", r.Err)
	}
	r := RunGoroutine(w)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "hierarchical") {
		t.Errorf("RunGoroutine err = %v, want a hierarchical-workload error", r.Err)
	}
}

// TestRunGoroutineRejectsLikeRun requires both engines to reject each
// malformed flat workload with the same message, and to accept a declared
// handshake that no flat body can use.
func TestRunGoroutineRejectsLikeRun(t *testing.T) {
	cases := map[string]func(w *Workload){
		"channel-kind":   func(w *Workload) { w.Channels[0].Kind = "pipe" },
		"queue-capacity": func(w *Workload) { w.Channels[1].Arg = 0 },
		"sem-count":      func(w *Workload) { w.Channels[0].Arg = -1 },
		"op-kind":        func(w *Workload) { w.Tasks[0].Ops[0].Kind = "signal" },
		"op-channel":     func(w *Workload) { w.Tasks[0].Ops[2].Ch = "irq" },
		"irq-sem":        func(w *Workload) { w.IRQs[0].Sem = "q" },
		"task-type":      func(w *Workload) { w.Tasks[2].Type = "sporadic" },
		"handshake": func(w *Workload) {
			w.Channels = append(w.Channels, ChannelDef{Name: "hs", Kind: "handshake"})
		},
	}
	for name, mutate := range cases {
		for _, pers := range []string{"generic", "itron", "osek"} {
			w := irqQueueWorkload()
			w.Channels = append([]ChannelDef(nil), w.Channels...)
			w.Tasks = append([]TaskDef(nil), w.Tasks...)
			w.Tasks[0].Ops = append([]Op(nil), w.Tasks[0].Ops...)
			w.IRQs = append([]IRQDef(nil), w.IRQs...)
			w.Personality = pers
			mutate(&w)
			want, got := Run(w), RunGoroutine(w)
			if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
				t.Errorf("%s/%s: RunGoroutine err = %v, Run err = %v", name, pers, got.Err, want.Err)
			}
			if (want.Err == nil) != (name == "handshake") {
				t.Errorf("%s/%s: Run err = %v", name, pers, want.Err)
			}
		}
	}
}
