package rtc

import (
	"testing"

	"repro/internal/personality"
)

// TestQueueSteadyStateAllocs pins zero allocations for steady-state
// queue traffic on the engine, under every personality's queue kind
// (generic queue, ITRON mailbox, OSEK queue): once warm, RunUntil slices
// of a producer/consumer pair must not allocate. The producer sends
// bursts of five through a queue of three and waits for the consumer's
// acknowledgement, so both sides block and the message buffer wraps —
// the case where a slice-backed FIFO creeps and re-allocates.
func TestQueueSteadyStateAllocs(t *testing.T) {
	for _, pers := range personality.Kinds() {
		t.Run(pers, func(t *testing.T) {
			const forever = 1 << 40
			send, recv := Op{Kind: "send", Ch: "q"}, Op{Kind: "recv", Ch: "q"}
			w := Workload{
				Policy:      "priority",
				Personality: pers,
				Channels: []ChannelDef{
					{Name: "q", Kind: "queue", Arg: 3},
					{Name: "ack", Kind: "semaphore", Arg: 0},
				},
				Tasks: []TaskDef{
					{Name: "send", Type: "aperiodic", Prio: 1, Repeat: forever, Ops: []Op{
						{Kind: "delay", Dur: 1}, send, send, send, send, send,
						{Kind: "acquire", Ch: "ack"},
					}},
					{Name: "recv", Type: "aperiodic", Prio: 2, Repeat: forever, Ops: []Op{
						recv, recv, recv, recv, recv, {Kind: "release", Ch: "ack"},
					}},
				},
			}
			s, err := NewSession(w)
			if err != nil {
				t.Fatal(err)
			}
			horizon := Time(0)
			step := func() {
				horizon += 100
				if err := s.RunUntil(horizon); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm-up: buffer growth, wait lists
			if avg := testing.AllocsPerRun(20, step); avg != 0 {
				t.Errorf("%.1f allocs per 100-tick slice of queue traffic, want 0", avg)
			}
			if st := s.Finish().Stats; st.ContextSwitches == 0 {
				t.Fatal("no context switch; the scenario does not exercise the queue")
			}
		})
	}
}
