// Automotive: periodic hard-real-time control tasks on the RTOS model —
// the task class the paper's task_create(…, period, wcet) and
// task_endcycle interface exists for.
//
// An engine controller runs three periodic tasks (ABS 5 ms, fuel
// injection 10 ms, dashboard 100 ms) under rate-monotonic scheduling,
// plus a sporadic crank-synchronization interrupt whose handler releases
// a high-priority aperiodic task. The demo validates deadlines in a
// nominal configuration, then overloads the fuel task to show the model
// catching the misses — the early validation the paper's flow is for.
// The -personality flag swaps the RTOS API the tasks program against
// (generic paper model, µITRON, OSEK) on the same scheduler, the paper's
// RTOS-library axis; EXPERIMENTS.md records the measured comparison.
//
// Run with: go run ./examples/automotive [-overload] [-personality itron]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func run(fuelWCET sim.Time, pers string) (tasks []*core.Task, st core.Stats, rep *telemetry.Report, rec *trace.Recorder, err error) {
	k := sim.NewKernel()
	rtos := core.New(k, "ECU", core.RMPolicy{}, core.WithTimeModel(core.TimeModelSegmented))
	rec = trace.New("ecu")
	agg := telemetry.NewAggregator()
	telemetry.Attach(rtos, telemetry.NewBus(rec, agg))
	rt, err := personality.New(pers, rtos)
	if err != nil {
		return nil, core.Stats{}, nil, nil, err
	}

	mkPeriodic := func(name string, period, wcet sim.Time) *core.Task {
		task := rt.TaskCreate(name, core.Periodic, period, wcet, 0)
		p := k.Spawn(name, func(p *sim.Proc) {
			rt.Activate(p, task)
			for {
				rt.Compute(p, wcet)
				rt.EndCycle(p)
			}
		})
		p.SetDaemon(true)
		return task
	}
	abs := mkPeriodic("abs", 5*sim.Millisecond, 1200*sim.Microsecond)
	fuel := mkPeriodic("fuel", 10*sim.Millisecond, fuelWCET)
	dash := mkPeriodic("dash", 100*sim.Millisecond, 8*sim.Millisecond)

	// Crank sensor: sporadic interrupt releasing a short aperiodic task
	// through the personality's native semaphore kind.
	crankSem := rt.NewSemaphore("crank", 0)
	crank := rt.TaskCreate("crank", core.Aperiodic, 0, 300*sim.Microsecond, -1) // above all periodic
	cp := k.Spawn("crank", func(p *sim.Proc) {
		rt.Activate(p, crank)
		for {
			crankSem.Acquire(p)
			rt.Compute(p, 300*sim.Microsecond)
		}
	})
	cp.SetDaemon(true)
	irqProc := k.Spawn("crank.sensor", func(p *sim.Proc) {
		for {
			p.WaitFor(7300 * sim.Microsecond) // ~8200 rpm, deliberately un-harmonic
			rtos.InterruptEnter(p, "crank")
			crankSem.Release(p)
			rtos.InterruptReturn(p, "crank")
		}
	})
	irqProc.SetDaemon(true)

	rtos.Start(nil)
	if err = k.RunUntil(1 * sim.Second); err != nil {
		return nil, core.Stats{}, nil, nil, err
	}
	agg.SetEnd(k.Now())
	return []*core.Task{abs, fuel, dash, crank}, rtos.StatsSnapshot(), agg.Report(), rec, nil
}

func main() {
	overload := flag.Bool("overload", false, "raise the fuel task's execution time past feasibility")
	pers := flag.String("personality", "", "RTOS personality (generic|itron|osek)")
	flag.Parse()

	fuelWCET := 3 * sim.Millisecond
	if *overload {
		fuelWCET = 7 * sim.Millisecond // U jumps past 1 with abs+dash+crank
	}
	tasks, st, rep, rec, err := run(fuelWCET, *pers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulation error:", err)
		os.Exit(1)
	}

	label := *pers
	if label == "" {
		label = "generic"
	}
	fmt.Printf("ECU, 1 s of operation, rate-monotonic, segmented time model, %s personality (fuel WCET %v)\n\n",
		label, fuelWCET)
	blocking := map[string]sim.Time{}
	for _, pe := range rep.PEs {
		for _, tr := range pe.Tasks {
			blocking[tr.Task] = tr.Blocking
		}
	}
	fmt.Printf("%-8s %10s %12s %8s %10s %12s\n", "task", "period", "cycles", "missed", "cpu", "blocked")
	for _, t := range tasks {
		period := "sporadic"
		if t.Type() == core.Periodic {
			period = t.Period().String()
		}
		fmt.Printf("%-8s %10s %12d %8d %10v %12v\n",
			t.Name(), period, t.Activations(), t.MissedDeadlines(), t.CPUTime(), blocking[t.Name()])
	}
	fmt.Printf("\ndispatches %d, context switches %d, preemptions %d, idle %v\n",
		st.Dispatches, st.ContextSwitches, st.Preemptions, st.IdleTime)
	fmt.Printf("energy @ 350/40 mW: %.1f µJ over the second\n",
		energyMicroJ(st))
	fmt.Println("\nfirst 50 ms of the schedule:")
	rec.Gantt(os.Stdout, trace.GanttOptions{To: 50 * sim.Millisecond, Width: 70})
	if *overload {
		fmt.Println("\n(the fuel task overruns: misses accumulate — caught in the")
		fmt.Println(" architecture model, long before an ECU bench would)")
	}
}

// energyMicroJ evaluates the two-state power model over the run.
func energyMicroJ(st core.Stats) float64 {
	pm := core.PowerModel{ActiveMW: 350, IdleMW: 40}
	active := pm.ActiveMW * float64(st.BusyTime)
	idle := pm.IdleMW * float64(st.IdleTime)
	return (active + idle) / 1e9 // mW·ns → µJ
}
