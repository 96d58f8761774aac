package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/vocoder"
)

// Table 1 pins for vocoder.Default(), as the repository's regression test
// checks them: modeled context switches and mean transcoding delay of the
// specification and architecture models, over 163 frames each.
const (
	table1Frames      = 163
	table1SpecSwitch  = 0
	table1ArchSwitch  = 329
	table1SpecDelayNs = 7014500
	table1ArchDelayNs = 10202000
)

// table1 runs the paper's figure of merit: the unscheduled specification
// model then the architecture model on the goroutine kernel.
type table1 struct {
	par vocoder.Params
}

func (b *table1) prepare() error { return nil }

func (b *table1) setup() error {
	b.par = vocoder.Default()
	return b.op(-1, nil, -1) // warm-up, checked like any op
}

func (b *table1) op(n int, tr *tracer, parent int) error {
	sp := tr.begin("vocoder.spec", n, parent)
	spec, _, err := vocoder.RunSpec(b.par)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("RunSpec: %v", err)
	}
	sp = tr.begin("vocoder.arch", n, parent)
	arch, _, err := vocoder.RunArch(b.par, core.PriorityPolicy{}, core.TimeModelCoarse)
	tr.end(sp)
	tr.work(sp, int64(arch.ContextSwitches))
	if err != nil {
		return fmt.Errorf("RunArch: %v", err)
	}
	if err := checkModel(spec, table1SpecSwitch, table1SpecDelayNs); err != nil {
		return err
	}
	return checkModel(arch, table1ArchSwitch, table1ArchDelayNs)
}

func checkModel(r vocoder.Results, switches uint64, delayNs int64) error {
	if r.ContextSwitches != switches || int64(r.TranscodingDelay) != delayNs || len(r.Delays) != table1Frames {
		return fmt.Errorf("%s model: switches=%d delay=%dns delays=%d, want %d, %dns, %d",
			r.Model, r.ContextSwitches, int64(r.TranscodingDelay), len(r.Delays), switches, delayNs, table1Frames)
	}
	return nil
}

func (b *table1) probe(int, *tracer) error { return nil }

func (b *table1) cellsPerOp() int { return 2 }

func (b *table1) layers(s spanStats, m map[string]float64) {
	spec := s.medianDur("vocoder.spec", time.Millisecond)
	arch := s.medianDur("vocoder.arch", time.Millisecond)
	m["vocoder.spec_ms"] = spec
	m["vocoder.arch_ms"] = arch
	if spec > 0 {
		m["core.rtos_overhead_ratio"] = arch / spec
	}
	if d, sw := s.total("vocoder.arch"); sw > 0 {
		m["core.ns_per_switch"] = float64(d.Nanoseconds()) / float64(sw)
	}
}

func (b *table1) close() {}
