// JPEG: hardware/software partitioning explored on system-level models —
// the second classic demonstrator of the authors' SoC Environment flow.
//
// A block pipeline (DCT → quantization → Huffman) encodes an image under
// three mappings:
//
//  1. unscheduled specification (all stages truly concurrent),
//  2. pure software (all stages as RTOS tasks on one CPU),
//  3. HW/SW partition (DCT on a bus-attached accelerator, rest on the CPU).
//
// The RTOS model makes mapping 2 and the CPU side of mapping 3 honest:
// stage delays serialize under the scheduler instead of overlapping
// freely, which is exactly the effect that motivates offloading the DCT.
//
// Run with: go run ./examples/jpeg [-blocks N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sdl"
	"repro/internal/sim"
)

func main() {
	blocks := flag.Int("blocks", 256, "number of 8x8 blocks to encode")
	flag.Parse()

	// jpeg.sdl holds the specification and the software mapping,
	// jpeg_hwsw.sdl the HW/SW partition (internal/sdl/models).
	sw := load("jpeg", *blocks)
	hw := load("jpeg_hwsw", *blocks)

	specRec, err := sw.RunUnscheduled()
	check(err)
	swRec, swOS, err := sw.RunArchitecture(core.PriorityPolicy{}, core.TimeModelCoarse)
	check(err)
	hwRec, hwOS, buses, err := hw.RunMapped(core.PriorityPolicy{}, core.TimeModelCoarse)
	check(err)
	bus := buses["bus"]

	fmt.Printf("JPEG encoder, %d blocks (DCT %v sw / %v hw, quant %v, huff %v per block)\n\n",
		*blocks, stageDelay(sw, "dct"), stageDelay(hw, "dct"), stageDelay(sw, "quant"), stageDelay(sw, "huff"))
	fmt.Printf("%-24s %16s %16s %14s\n", "mapping", "total", "per block", "ctx switches")
	for _, r := range []struct {
		name  string
		total sim.Time
		cs    uint64
	}{
		{"unscheduled", specRec.End(), 0},
		{"software", swRec.End(), swOS.StatsSnapshot().ContextSwitches},
		{"hw/sw", hwRec.End(), hwOS["CPU"].StatsSnapshot().ContextSwitches},
	} {
		var perBlock sim.Time
		if *blocks > 0 {
			perBlock = r.total / sim.Time(*blocks)
		}
		fmt.Printf("%-24s %16v %16v %14d\n", r.name, r.total, perBlock, r.cs)
	}
	fmt.Printf("\nHW/SW: speedup %.2fx over pure software; bus busy %v over %d transfers\n",
		float64(swRec.End())/float64(hwRec.End()), bus.BusyTime(), bus.Transfers())
	fmt.Println("(the accelerator lets quantization and Huffman overlap the DCT again,")
	fmt.Println(" recovering most of the specification model's pipeline parallelism)")
}

// load opens a built-in JPEG model and sets every stage's outer repeat
// count to the number of blocks.
func load(name string, blocks int) *sdl.Model {
	m, err := sdl.Load(name)
	check(err)
	for i := range m.Behaviors {
		m.Behaviors[i].Stmts[0].Count = blocks
	}
	return m
}

// stageDelay returns the per-block delay annotation of a stage.
func stageDelay(m *sdl.Model, stage string) sim.Time {
	for _, b := range m.Behaviors {
		if b.Name == stage {
			for _, s := range b.Stmts[0].Body {
				if s.Op == sdl.OpDelay {
					return s.Dur
				}
			}
		}
	}
	return 0
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
