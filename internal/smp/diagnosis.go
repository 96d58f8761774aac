package smp

// Runtime diagnosis for the global multiprocessor scheduler, mirroring
// the uniprocessor layer (core/diagnosis.go). The SMP service surface has
// no blocking synchronization primitives, so the wait-for graph
// degenerates: what remains detectable — and what the fuzzer's target
// class of dispatcher bugs produces — is ready tasks that never receive a
// CPU slot (a wedged dispatcher or starvation) and tasks stranded in
// waiting states when the simulation dies. Diagnoses reuse
// core.DiagnosisError so campaign tooling handles both schedulers
// uniformly.

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// DiagnosisObserver is an optional extension of Observer: observers
// registered with OS.Observe that also implement it receive every runtime
// diagnosis recorded on the instance.
type DiagnosisObserver = core.DiagnosisObserver

// Diagnosis returns the first runtime diagnosis recorded on this instance
// (nil if the run was diagnosis-clean so far).
func (os *OS) Diagnosis() *core.DiagnosisError { return os.diagnosis }

func (os *OS) recordDiagnosis(d *core.DiagnosisError) {
	core.RecordDiagnosis(&os.diagnosis, d, os.observers)
}

// diagnoseStall reports every alive task that is neither executing nor
// waiting on a timer (its own period or modeled delay) at a simulation
// stall — ready tasks the dispatcher abandoned, or tasks never activated
// past creation. Returns nil when the blockage has no such victim.
func (os *OS) diagnoseStall() *core.DiagnosisError {
	var blocked []core.WaitEdge
	for _, t := range os.tasks {
		if !t.state.Alive() {
			continue
		}
		switch t.state {
		case core.TaskRunning, core.TaskWaitingTime, core.TaskWaitingPeriod, core.TaskCreated:
			continue
		}
		blocked = append(blocked, core.WaitEdge{Task: t.name, Resource: "cpu"})
	}
	if len(blocked) == 0 {
		return nil
	}
	return &core.DiagnosisError{PE: os.name, Kind: core.DiagStall,
		At: os.k.Now(), Blocked: blocked}
}

// EnableWatchdog spawns a daemon that checks dispatch progress every
// window of simulated time, exactly like the uniprocessor watchdog
// (core.OS.EnableWatchdog): a window with ready tasks but no dispatch is
// starvation; a window where only the watchdog's own timer kept the
// simulation alive is diagnosed as the underlying stall. The window must
// exceed the longest legitimate uninterrupted slot occupancy. Starvation
// needs two consecutive progress-free checks (see the core watchdog: a
// same-instant timer wake can make a task ready before the scheduler
// runs); the stall check stays immediate. The verdict is core.Watchdog's.
func (os *OS) EnableWatchdog(window sim.Time) {
	if window <= 0 || os.watchdogOn {
		return
	}
	os.watchdogOn = true
	pr := os.k.Spawn("watchdog:"+os.name, func(p *sim.Proc) {
		wd := core.NewWatchdog()
		diagnose := func() *core.DiagnosisError { return os.watchdogDiagnose(window) }
		for {
			p.WaitFor(window)
			if core.AllDone(os.tasks) {
				return
			}
			if d := wd.Check(os.progress, diagnose); d != nil {
				os.recordDiagnosis(d)
				os.k.Fail(d)
				return
			}
		}
	})
	pr.SetDaemon(true)
}

func (os *OS) watchdogDiagnose(window sim.Time) *core.DiagnosisError {
	if len(os.ready) == 0 && os.RunningCount() == 0 && os.k.PendingTimers() == 0 {
		return os.diagnoseStall()
	}
	if len(os.ready) > 0 {
		d := &core.DiagnosisError{PE: os.name, Kind: core.DiagStarvation,
			At: os.k.Now(), Window: window}
		for _, t := range os.tasks {
			if t.state == core.TaskReady {
				d.Blocked = append(d.Blocked, core.WaitEdge{Task: t.name, Resource: "cpu"})
			}
		}
		return d
	}
	return nil
}
