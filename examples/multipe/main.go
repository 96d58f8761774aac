// Multi-PE: a heterogeneous system architecture with per-PE RTOS
// instances, a shared bus and interrupt-driven inter-PE links.
//
// The system models a small signal-processing pipeline:
//
//	sensor (HW PE) --bus--> dsp (SW PE, RTOS: filter + stats tasks)
//	                           \--bus--> host (SW PE, RTOS: logger task)
//
// The sensor produces samples periodically; the DSP's filter task
// processes them (woken by the link's ISR through a semaphore, the
// paper's bus-driver pattern) while a lower-priority statistics task runs
// in the background; filtered results travel over the same bus to the
// host PE's logger task. Each software PE runs its own instance of the
// abstract RTOS model, demonstrating "for each PE in the system a RTOS
// model ... is imported from the library and instantiated in the PE".
//
// Run with: go run ./examples/multipe [-samples N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	samples := flag.Int("samples", 10, "sensor samples to process")
	flag.Parse()

	k := sim.NewKernel()
	bus := arch.NewBus(k, "sysbus", 2*sim.Microsecond, 100) // 100 ns/byte

	sensor := arch.NewHWPE(k, "sensor")
	dsp := arch.NewSWPE(k, "dsp", core.PriorityPolicy{})
	host := arch.NewSWPE(k, "host", core.PriorityPolicy{})

	dspRec := trace.New("dsp")
	telemetry.Attach(dsp.OS(), dspRec)
	hostRec := trace.New("host")
	telemetry.Attach(host.OS(), hostRec)

	toDSP := arch.NewLink[int](bus, "sensor-dsp", sensor, dsp, 16, 2*sim.Microsecond)
	toHost := arch.NewLink[int](bus, "dsp-host", dsp, host, 8, 2*sim.Microsecond)

	// Sensor: one sample every 500 µs.
	k.Spawn("sensor.sample", func(p *sim.Proc) {
		for i := 0; i < *samples; i++ {
			p.WaitFor(500 * sim.Microsecond)
			toDSP.Send(p, i*i)
		}
	})

	// DSP: high-priority filter task plus background statistics task.
	filter := dsp.OS().TaskCreate("filter", core.Aperiodic, 0, 0, 1)
	stats := dsp.OS().TaskCreate("stats", core.Aperiodic, 0, 0, 5)
	var background int
	k.Spawn("dsp.filter", func(p *sim.Proc) {
		dsp.OS().TaskActivate(p, filter)
		for i := 0; i < *samples; i++ {
			v := toDSP.Recv(p)
			dsp.OS().TimeWait(p, 150*sim.Microsecond) // FIR compute
			toHost.Send(p, v/2)
		}
		dsp.OS().TaskKill(p, stats) // stop the background task
		dsp.OS().TaskTerminate(p)
	})
	k.Spawn("dsp.stats", func(p *sim.Proc) {
		dsp.OS().TaskActivate(p, stats)
		for {
			dsp.OS().TimeWait(p, 100*sim.Microsecond)
			background++
		}
	})

	// Host: logger task.
	logger := host.OS().TaskCreate("logger", core.Aperiodic, 0, 0, 1)
	k.Spawn("host.logger", func(p *sim.Proc) {
		host.OS().TaskActivate(p, logger)
		for i := 0; i < *samples; i++ {
			v := toHost.Recv(p)
			host.OS().TimeWait(p, 50*sim.Microsecond)
			fmt.Printf("[%10v] host: logged sample %2d = %d\n", p.Now(), i, v)
		}
		host.OS().TaskTerminate(p)
	})

	dsp.OS().Start(nil)
	host.OS().Start(nil)
	if err := k.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulation error:", err)
		os.Exit(1)
	}

	fmt.Printf("\nfinished at %v\n", k.Now())
	fmt.Printf("bus: %d transfers, %d bytes, busy %v\n", bus.Transfers(), bus.Bytes(), bus.BusyTime())
	d := dsp.OS().StatsSnapshot()
	h := host.OS().StatsSnapshot()
	fmt.Printf("dsp : %d dispatches, %d context switches, %d IRQs; background steps: %d\n",
		d.Dispatches, d.ContextSwitches, d.IRQs, background)
	fmt.Printf("host: %d dispatches, %d context switches, %d IRQs\n",
		h.Dispatches, h.ContextSwitches, h.IRQs)
	fmt.Println("\ndsp schedule:")
	dspRec.Gantt(os.Stdout, trace.GanttOptions{Width: 64})
}
