// Robustness pin: the runtime diagnosis layer (wait-for-graph deadlock
// detector, stall/starvation watchdog) must stay silent on every healthy
// model in the repository, and must fire — with the exact wait-for cycle
// — on the seeded fault. scripts/check.sh runs this file under -race, so
// it doubles as the race gate for the diagnosis plumbing.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/personality/osek"
	"repro/internal/sdl"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/vocoder"
)

// TestExamplesDiagnosisClean runs the paper's example models with the
// always-armed monitor and asserts no runtime diagnosis surfaces as an
// error. The vocoder runners propagate OS().Diagnosis() into their
// returned error, so a clean err is the whole assertion there; the SDL
// runner's diagnosis is read from its OS instance.
func TestExamplesDiagnosisClean(t *testing.T) {
	par := vocoder.Small()
	for _, tm := range []core.TimeModel{core.TimeModelCoarse, core.TimeModelSegmented} {
		if _, _, err := vocoder.RunArch(par, core.PriorityPolicy{}, tm); err != nil {
			t.Errorf("vocoder arch (%v): %v", tm, err)
		}
	}
	if _, _, err := vocoder.RunMultiPE(vocoder.DefaultMultiPE(), core.PriorityPolicy{}, core.TimeModelCoarse); err != nil {
		t.Errorf("vocoder multi-pe: %v", err)
	}
	m, err := sdl.Load("figure3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []core.TimeModel{core.TimeModelCoarse, core.TimeModelSegmented} {
		_, osi, err := m.RunArchitecture(core.PriorityPolicy{}, tm)
		if err != nil {
			t.Errorf("figure3 arch (%v): %v", tm, err)
		} else if d := osi.Diagnosis(); d != nil {
			t.Errorf("figure3 arch (%v): %v", tm, d)
		}
	}
}

// TestSimcheckMatrixDiagnosisClean spot-checks generated scenarios across
// the full policy × time-model × PE matrix with the watchdog enabled: the
// generator only emits deadlock-free scenarios, so any diagnosis is a
// detector false positive and CheckRun reports it as a violation.
func TestSimcheckMatrixDiagnosisClean(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := simcheck.Generate(seed)
		if fails := simcheck.Check(s); len(fails) > 0 {
			for _, f := range fails {
				t.Errorf("seed %d: %v", seed, f)
			}
		}
	}
}

// TestSeededDeadlockPin is the must-detect gate: the three-task semaphore
// ring with its refill interrupts dropped must be diagnosed as a deadlock
// with the exact wait-for cycle, within the scenario's own horizon. The
// gate is pinned under both the generic and the itron personalities —
// wai_sem's direct-handoff grant discipline must not change which cycle
// forms or how it is named (µITRON semaphores have no ceiling protocol,
// so the ring wedges exactly like the paper model's).
func TestSeededDeadlockPin(t *testing.T) {
	for _, pers := range []string{"", "itron"} {
		name := pers
		if name == "" {
			name = "generic"
		}
		t.Run(name, func(t *testing.T) {
			s, plan := fault.DeadlockScenario()
			res := fault.RunScenario(s, plan, s.Seed, fault.Options{Personality: pers})
			d := res.Diagnosed()
			if d == nil {
				t.Fatal("seeded deadlock not detected")
			}
			if d.Kind != core.DiagDeadlock {
				t.Fatalf("diagnosis kind = %v, want deadlock (%v)", d.Kind, d)
			}
			if d.At >= s.Horizon() {
				t.Errorf("detected at %v, after the scenario horizon %v", d.At, s.Horizon())
			}
			want := []string{
				"A waits on semaphore:s1 held by B",
				"B waits on semaphore:s2 held by C",
				"C waits on semaphore:s0 held by A",
			}
			if len(d.Cycle) != len(want) {
				t.Fatalf("cycle = %v, want %v", d.Cycle, want)
			}
			for i := range want {
				if got := d.Cycle[i].String(); got != want[i] {
					t.Errorf("cycle[%d] = %q, want %q", i, got, want[i])
				}
			}
		})
	}
}

// TestOSEKCeilingPreventsSemaphoreRing is the counterpart of the
// must-detect gate: the same three-task hold-one-want-next ring that
// wedges under generic and itron semaphores CANNOT form under OSEK
// resources, because the immediate priority ceiling protocol raises a
// task to the shared ceiling the moment it takes its first resource —
// no other accessor can even start its own critical section, so nesting
// order is irrelevant and the run must stay diagnosis-free with every
// task completing both critical sections.
func TestOSEKCeilingPreventsSemaphoreRing(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	rtos := core.New(k, "ECU", core.PriorityPolicy{})
	rtos.Init()
	sys := osek.NewSystem(rtos, osek.BCC1)

	var ids [3]osek.TaskID
	var done int
	for i, name := range []string{"A", "B", "C"} {
		id, st := sys.DeclareTask(osek.TaskDecl{Name: name, Prio: 3 + i, Autostart: true}, nil)
		if st != osek.EOk {
			t.Fatalf("DeclareTask(%s): %v", name, st)
		}
		ids[i] = id
	}
	// Ring resources: task i holds r[i] and requests r[(i+1)%3] inside it.
	var rs [3]osek.ResID
	for i, name := range []string{"r0", "r1", "r2"} {
		id, st := sys.DeclareResource(name, ids[i], ids[(i+2)%3])
		if st != osek.EOk {
			t.Fatalf("DeclareResource(%s): %v", name, st)
		}
		rs[i] = id
	}
	for i := range ids {
		i := i
		sys.SetBody(ids[i], func(p *sim.Proc) {
			if st := sys.GetResource(p, rs[i]); st != osek.EOk {
				t.Errorf("task %d GetResource(hold): %v", i, st)
			}
			rtos.TimeWait(p, 10)
			if st := sys.GetResource(p, rs[(i+1)%3]); st != osek.EOk {
				t.Errorf("task %d GetResource(want): %v", i, st)
			}
			rtos.TimeWait(p, 5)
			sys.ReleaseResource(p, rs[(i+1)%3])
			sys.ReleaseResource(p, rs[i])
			done++
		})
	}
	sys.Start()
	if err := k.RunUntil(10_000); err != nil {
		t.Fatalf("ring under ceiling protocol did not stay live: %v", err)
	}
	if d := rtos.Diagnosis(); d != nil {
		t.Fatalf("diagnosis on a ceiling-protected ring: %v", d)
	}
	if d := rtos.DiagnoseNow(); d != nil {
		t.Fatalf("post-mortem diagnosis on a ceiling-protected ring: %v", d)
	}
	if done != 3 {
		t.Errorf("%d tasks completed both critical sections, want 3", done)
	}
}
