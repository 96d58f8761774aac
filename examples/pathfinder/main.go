// Pathfinder: priority inversion and priority inheritance on the RTOS
// model — the famous Mars Pathfinder failure scenario, reproduced at the
// abstraction level of the paper's architecture models.
//
// Three tasks share one processing element:
//
//	bus_mgmt (high priority)   periodically needs the information bus mutex
//	comms    (medium priority) long-running communications bursts
//	meteo    (low priority)    occasionally publishes data, holding the mutex
//
// Without priority inheritance, comms preempts meteo inside its critical
// section, so bus_mgmt's wait for the mutex is extended by the whole
// comms burst — the watchdog fires (a deadline miss). With inheritance,
// meteo is boosted while bus_mgmt waits and the inversion is bounded by
// the critical section. This extends the paper's RTOS model with a
// resource-management service and shows the kind of dynamic-behavior bug
// the model lets a designer find before implementation.
//
// Run with: go run ./examples/pathfinder
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// scenario runs the system and returns the worst observed bus-acquisition
// latency of the high-priority task and the deadline misses.
func scenario(inherit bool) (worst sim.Time, misses int, rec *trace.Recorder) {
	k := sim.NewKernel()
	rtos := core.New(k, "RAD6000", core.PriorityPolicy{},
		core.WithTimeModel(core.TimeModelSegmented))
	rec = trace.New("pathfinder")
	telemetry.Attach(rtos, rec)
	busMutex := rtos.MutexNew("info-bus", inherit)

	const (
		period   = 125 * sim.Millisecond // bus management cycle
		deadline = 50 * sim.Millisecond  // watchdog limit for acquiring the bus
		gather   = 110 * sim.Millisecond // meteo's data gathering before publishing
		csMeteo  = 30 * sim.Millisecond  // meteo's critical section (holds 110..140)
		burst    = 60 * sim.Millisecond  // comms burst length
		cycles   = 8
	)

	busMgmt := rtos.TaskCreate("bus_mgmt", core.Periodic, period, 5*sim.Millisecond, 10)
	comms := rtos.TaskCreate("comms", core.Aperiodic, 0, 0, 20)
	meteo := rtos.TaskCreate("meteo", core.Aperiodic, 0, 0, 30)

	k.Spawn("bus_mgmt", func(p *sim.Proc) {
		rtos.TaskActivate(p, busMgmt)
		for i := 0; i < cycles; i++ {
			start := p.Now()
			busMutex.Lock(p)
			lat := p.Now() - start
			if lat > worst {
				worst = lat
			}
			if lat > deadline {
				misses++
			}
			rtos.TimeWait(p, 5*sim.Millisecond)
			busMutex.Unlock(p)
			rtos.TaskEndCycle(p)
		}
		rtos.TaskTerminate(p)
	})
	k.Spawn("meteo", func(p *sim.Proc) {
		rtos.TaskActivate(p, meteo)
		for i := 0; i < cycles; i++ {
			rtos.TimeWait(p, gather) // gather data
			busMutex.Lock(p)
			rtos.TimeWait(p, csMeteo) // publish on the bus
			busMutex.Unlock(p)
		}
		rtos.TaskTerminate(p)
	})
	// comms is a server-style task: it bursts whenever the ground station
	// activates it and sleeps in between, forever. Its process is a
	// daemon so the simulation ends when the real work is done.
	k.Spawn("comms", func(p *sim.Proc) {
		rtos.TaskActivate(p, comms)
		for {
			rtos.TimeWait(p, burst) // long communications burst
			rtos.TaskSleep(p)
		}
	}).SetDaemon(true)
	// Ground station: wakes comms 1 ms after each bus-management release —
	// exactly while bus_mgmt blocks on the mutex meteo holds, opening the
	// inversion window.
	k.Spawn("ground", func(p *sim.Proc) {
		p.WaitFor(period + 1*sim.Millisecond)
		for i := 0; i < cycles; i++ {
			if comms.State() == core.TaskSuspended {
				rtos.TaskActivate(p, comms)
			}
			p.WaitFor(period)
		}
	}).SetDaemon(true)

	rtos.Start(nil)
	if err := k.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulation error:", err)
		os.Exit(1)
	}
	return worst, misses, rec
}

func main() {
	worstOff, missesOff, _ := scenario(false)
	worstOn, missesOn, _ := scenario(true)

	fmt.Println("Mars-Pathfinder-style priority inversion on the abstract RTOS model")
	fmt.Printf("\n%-28s %18s %18s\n", "", "no inheritance", "inheritance")
	fmt.Printf("%-28s %18v %18v\n", "worst bus-acquire latency", worstOff, worstOn)
	fmt.Printf("%-28s %18d %18d\n", "watchdog resets (>50ms)", missesOff, missesOn)
	fmt.Println("\nWith inheritance the meteo task is boosted while bus_mgmt waits, so the")
	fmt.Println("comms burst can no longer extend the high-priority task's blocking time —")
	fmt.Println("the fix JPL uplinked to Pathfinder, validated here on a system-level model.")
}
