package dse

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/rtc"
	"repro/internal/sim"
)

func forkBase() rtc.Workload {
	return rtc.Workload{
		Name:   "fork-pe",
		Policy: "priority",
		Tasks: []rtc.TaskDef{
			{Name: "hi", Type: "periodic", Prio: 1, Period: 5 * sim.Millisecond, Cycles: 8, Segments: []sim.Time{1200 * sim.Microsecond}},
			{Name: "mid", Type: "periodic", Prio: 2, Period: 8 * sim.Millisecond, Cycles: 5, Segments: []sim.Time{900 * sim.Microsecond, 600 * sim.Microsecond}},
			{Name: "lo", Type: "periodic", Prio: 3, Period: 13 * sim.Millisecond, Cycles: 3, Segments: []sim.Time{2 * sim.Millisecond}},
		},
		Horizon: 50 * sim.Millisecond,
		Trace:   true,
	}
}

func serializeRTC(r *rtc.Result) []byte {
	var b bytes.Buffer
	for _, rec := range r.Trace.Records() {
		fmt.Fprintf(&b, "%s\n", rec.String())
	}
	fmt.Fprintf(&b, "stats %+v end %v pers %s\n", r.Stats, r.End, r.Personality)
	fmt.Fprintf(&b, "err %v diag %v cons %v\n", r.Err, r.Diag, r.Conservation)
	for _, tr := range r.Tasks {
		fmt.Fprintf(&b, "task %+v\n", tr)
	}
	return b.Bytes()
}

// TestForkSweepSamePolicyEquivalence: forking without changing any knob
// must reproduce the uninterrupted run byte for byte — the checkpoint
// adds nothing and loses nothing.
func TestForkSweepSamePolicyEquivalence(t *testing.T) {
	base := forkBase()
	want := serializeRTC(rtc.Run(base))
	results, err := ForkSweep(base, 17*sim.Millisecond, []Variant{{Name: "same", Policy: base.Policy}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	got := serializeRTC(results[0].Result)
	if !bytes.Equal(got, want) {
		t.Errorf("same-policy fork diverges from uninterrupted run:\nfork:\n%s\nuninterrupted:\n%s", got, want)
	}
}

// TestForkSweepVariants: every variant completes from the shared
// checkpoint, the policy switch actually takes effect, and the sweep is
// deterministic across jobs counts.
func TestForkSweepVariants(t *testing.T) {
	base := forkBase()
	variants := []Variant{
		{Name: "priority", Policy: "priority"},
		{Name: "fifo", Policy: "fifo"},
		{Name: "rr", Policy: "rr", Quantum: 500 * sim.Microsecond},
		{Name: "edf", Policy: "edf"},
	}
	seq, err := ForkSweep(base, 17*sim.Millisecond, variants, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ForkSweep(base, 17*sim.Millisecond, variants, 4)
	if err != nil {
		t.Fatal(err)
	}
	serialized := map[string][]byte{}
	for i, r := range seq {
		if r.Err != nil {
			t.Fatalf("variant %s: %v", r.Variant.Name, r.Err)
		}
		if r.Result.Err != nil || r.Result.Conservation != nil {
			t.Fatalf("variant %s: err=%v conservation=%v", r.Variant.Name, r.Result.Err, r.Result.Conservation)
		}
		if r.Result.End < 17*sim.Millisecond {
			t.Errorf("variant %s ended at %v, before the fork point", r.Variant.Name, r.Result.End)
		}
		serialized[r.Variant.Name] = serializeRTC(r.Result)
		if !bytes.Equal(serialized[r.Variant.Name], serializeRTC(par[i].Result)) {
			t.Errorf("variant %s: parallel sweep diverges from sequential", r.Variant.Name)
		}
	}
	if bytes.Equal(serialized["priority"], serialized["fifo"]) && bytes.Equal(serialized["priority"], serialized["rr"]) {
		t.Errorf("policy fork had no observable effect on any variant")
	}
}

// TestForkSweepPrefixFailure: a workload whose prefix cannot even start
// reports the error instead of forking garbage.
func TestForkSweepPrefixFailure(t *testing.T) {
	base := forkBase()
	base.Policy = "no-such-policy"
	if _, err := ForkSweep(base, sim.Millisecond, []Variant{{Name: "x", Policy: "priority"}}, 1); err == nil {
		t.Errorf("invalid workload forked without error")
	}
}
