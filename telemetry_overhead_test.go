// Telemetry overhead: benchmarks of the vocoder architecture model with
// no observer, with the compact binary ring sink, with the metrics
// aggregator, and with the full capture pipeline — plus a CI guard that
// the ring sink's cost is a fixed amount per event.
//
//	go test -bench 'BenchmarkTelemetry' -benchmem
//	TELEMETRY_OVERHEAD_GUARD=1 go test -run TestTelemetryOverheadGuard
package repro

import (
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/vocoder"
)

// telemetryFrames sizes the benchmark workload: the vocoder structure at
// enough frames that the per-event hook path dominates fixed setup costs
// (the ring's one-time buffer allocation amortizes away).
const telemetryFrames = 64

// ringCap is the ring sink's capacity in events.
const ringCap = 4096

// vocoderArchOnce runs the reference workload at the given number of
// frames, optionally instrumented.
func vocoderArchOnce(tb testing.TB, frames int, bus *telemetry.Bus) {
	p := vocoder.Small()
	p.Frames = frames
	var err error
	if bus != nil {
		_, _, err = vocoder.RunArch(p, core.PriorityPolicy{}, core.TimeModelCoarse, bus)
	} else {
		_, _, err = vocoder.RunArch(p, core.PriorityPolicy{}, core.TimeModelCoarse)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkTelemetryNoObserver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vocoderArchOnce(b, telemetryFrames, nil)
	}
}

func BenchmarkTelemetryRingSink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// A fresh fixed-capacity ring per run, as an always-on flight
		// recorder would use: Emit stops allocating once the buffer fills.
		vocoderArchOnce(b, telemetryFrames, telemetry.NewBus(telemetry.NewRing(ringCap)))
	}
}

func BenchmarkTelemetryAggregator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vocoderArchOnce(b, telemetryFrames, telemetry.NewBus(telemetry.NewAggregator()))
	}
}

func BenchmarkTelemetryFullCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vocoderArchOnce(b, telemetryFrames, telemetry.NewCapture().Bus)
	}
}

// guardFrames are the two stream lengths the guard compares; 512 frames
// emit about eight times the events of 64.
var guardFrames = [2]int{64, 512}

// TestTelemetryOverheadGuard checks that an always-on ring sink costs a
// fixed amount per event, by comparing the sink's added cost at two
// stream lengths rather than against the uninstrumented run, so a faster
// or slower kernel does not move it:
//
//   - allocations, exactly: the ring-sink run allocates the same number of
//     times more than the no-observer run at both lengths, so no event
//     allocates (a per-event fmt.Sprintf, a boxed value, a growing slice);
//   - CPU time: the added CPU time per event at 512 frames stays within
//     maxGrowth of that at 64 frames, so no event's cost grows with the
//     length of the stream it is part of (a search over the events a run
//     has emitted so far).
//
// A constant cost per event that neither allocates nor grows is left to
// BenchmarkTelemetryRingSink: any bound on it is a bound relative to the
// cost of simulating, which is what made the earlier ratio guard move
// whenever the kernel got faster.
//
// CPU time is the process's (time the host gives to other processes does
// not count), as in TestPersonalityOverheadGuard. The runs with and
// without the sink alternate, so drift in the host's speed hits both
// alike, and the guard takes the median of the rounds' differences. The guard is opt-in (scripts/check.sh sets
// TELEMETRY_OVERHEAD_GUARD=1) to keep plain `go test` immune to loaded
// hosts.
func TestTelemetryOverheadGuard(t *testing.T) {
	if os.Getenv("TELEMETRY_OVERHEAD_GUARD") != "1" {
		t.Skip("set TELEMETRY_OVERHEAD_GUARD=1 to run the overhead guard")
	}
	const rounds = 11
	const sampleFrames = 8192 // frames simulated per sample at either length
	const maxGrowth = 2.5

	// Every observed run emits into one ring, as a flight recorder keeps
	// one. A fresh ring's buffer costs each run a fixed 442 kB, which
	// would inflate the cost per event of the shorter stream and trigger
	// collections after which the proc pool's refills blur the allocation
	// count.
	ring := telemetry.NewRing(ringCap)
	var events, allocs [2]float64
	for i, frames := range guardFrames {
		before := ring.Total()
		vocoderArchOnce(t, frames, telemetry.NewBus(ring))
		events[i] = float64(ring.Total() - before)
		base := testing.AllocsPerRun(10, func() { vocoderArchOnce(t, frames, nil) })
		obs := testing.AllocsPerRun(10, func() { vocoderArchOnce(t, frames, telemetry.NewBus(ring)) })
		allocs[i] = obs - base
		t.Logf("%d frames: %.0f events, ring sink adds %.0f allocations per run", frames, events[i], allocs[i])
	}
	if allocs[1] != allocs[0] {
		t.Errorf("ring sink adds %.0f allocations per run at %.0f events but %.0f at %.0f: events allocate",
			allocs[0], events[0], allocs[1], events[1])
	}

	var added [2][]time.Duration // per round: CPU with the sink minus without
	for r := 0; r < rounds; r++ {
		for i, frames := range guardFrames {
			var cpu [2]time.Duration
			for observed := range cpu {
				runtime.GC() // no sample pays for its predecessor's garbage
				start := processCPU(t)
				for range sampleFrames / frames {
					var bus *telemetry.Bus
					if observed == 1 {
						bus = telemetry.NewBus(ring)
					}
					vocoderArchOnce(t, frames, bus)
				}
				cpu[observed] = processCPU(t) - start
			}
			added[i] = append(added[i], cpu[1]-cpu[0])
		}
	}
	var perEvent [2]float64 // added CPU ns per event
	for i, frames := range guardFrames {
		perEvent[i] = float64(median(added[i])) / (events[i] * float64(sampleFrames/frames))
		t.Logf("%d frames: the ring sink adds a median %v of CPU per %d frames, %.1f ns per event",
			frames, median(added[i]), sampleFrames, perEvent[i])
	}
	growth := perEvent[1] / perEvent[0]
	t.Logf("added CPU per event grows %.2fx from %d to %d frames (limit %.1fx)",
		growth, guardFrames[0], guardFrames[1], maxGrowth)
	if perEvent[0] <= 0 {
		t.Errorf("ring sink adds no CPU time at %d frames (%.1f ns per event): the measurement is void",
			guardFrames[0], perEvent[0])
	} else if growth > maxGrowth {
		t.Errorf("ring sink's CPU time per event grows %.2fx from %d to %d frames, over %.1fx",
			growth, guardFrames[0], guardFrames[1], maxGrowth)
	}
}
