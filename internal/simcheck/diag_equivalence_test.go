package simcheck

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/personality"
	"repro/internal/rtc"
	"repro/internal/sim"
)

// diagCase is a workload built to fail: a circular wait, a lost
// interrupt or a starved task. It runs on both engines from the same
// rtc.Workload description.
type diagCase struct {
	name string
	w    rtc.Workload
	want core.DiagnosisKind
}

func diagCases() []diagCase {
	us := sim.Microsecond
	// Three tasks each take their own semaphore and park on a gate; the
	// interrupt opens the gate once per task, and each then asks for its
	// neighbour's semaphore — a three-resource ring.
	ring := rtc.Workload{
		Policy:   "priority",
		Horizon:  sim.Millisecond,
		Channels: []rtc.ChannelDef{{Name: "gate", Kind: "semaphore", Arg: 0}},
		IRQs:     []rtc.IRQDef{{Name: "go", Sem: "gate", At: 50 * us, Every: 10 * us, Count: 3}},
	}
	for i := 0; i < 3; i++ {
		own, next := fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", (i+1)%3)
		ring.Channels = append(ring.Channels, rtc.ChannelDef{Name: own, Kind: "semaphore", Arg: 1})
		ring.Tasks = append(ring.Tasks, rtc.TaskDef{
			Name: fmt.Sprintf("t%d", i), Type: "aperiodic", Prio: i + 1,
			Ops: []rtc.Op{
				{Kind: "acquire", Ch: own},
				{Kind: "delay", Dur: 5 * us},
				{Kind: "acquire", Ch: "gate"},
				{Kind: "acquire", Ch: next},
				{Kind: "release", Ch: next},
				{Kind: "release", Ch: own},
			},
		})
	}

	// A driver expecting two interrupts gets one; the consumer it feeds
	// waits on the queue behind it.
	dropped := func(window sim.Time) rtc.Workload {
		return rtc.Workload{
			Policy:         "priority",
			WatchdogWindow: window,
			Horizon:        sim.Millisecond,
			Channels: []rtc.ChannelDef{
				{Name: "irq", Kind: "semaphore", Arg: 0},
				{Name: "data", Kind: "queue", Arg: 2},
			},
			Tasks: []rtc.TaskDef{
				{Name: "drv", Type: "aperiodic", Prio: 1, Ops: []rtc.Op{
					{Kind: "acquire", Ch: "irq"},
					{Kind: "delay", Dur: 5 * us},
					{Kind: "acquire", Ch: "irq"},
					{Kind: "send", Ch: "data"},
				}},
				{Name: "app", Type: "aperiodic", Prio: 2, Ops: []rtc.Op{
					{Kind: "delay", Dur: 3 * us},
					{Kind: "recv", Ch: "data"},
				}},
			},
			IRQs: []rtc.IRQDef{{Name: "rx", Sem: "irq", At: 20 * us, Every: 10 * us, Count: 1}},
		}
	}

	// Non-preemptive scheduling with a hog far longer than the watchdog
	// window: the victim stays ready with no dispatch.
	starve := rtc.Workload{
		Policy:         "fcfs",
		WatchdogWindow: 100 * us,
		Horizon:        2 * sim.Millisecond,
		Tasks: []rtc.TaskDef{
			{Name: "hog", Type: "aperiodic", Prio: 1, Ops: []rtc.Op{{Kind: "delay", Dur: sim.Millisecond}}},
			{Name: "victim", Type: "aperiodic", Prio: 0, Start: 10 * us, Ops: []rtc.Op{{Kind: "delay", Dur: 10 * us}}},
		},
	}

	return []diagCase{
		{"semaphore-ring", ring, core.DiagDeadlock},
		{"dropped-irq-stall", dropped(0), core.DiagStall},
		{"hidden-stall", dropped(200 * us), core.DiagStall},
		{"watchdog-starvation", starve, core.DiagStarvation},
	}
}

// runDiagGoroutine runs w on the goroutine kernel through the
// personality runtime, in the spawn order the rtc engine uses (tasks,
// interrupt sources, watchdog).
func runDiagGoroutine(t *testing.T, w rtc.Workload) (*core.DiagnosisError, error) {
	t.Helper()
	policy, err := core.PolicyByName(w.Policy, w.Quantum)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	rtos := core.New(k, "PE", policy, core.WithTimeModel(w.TimeModel))
	rt, err := personality.New(w.Personality, rtos)
	if err != nil {
		t.Fatal(err)
	}
	queues := map[string]personality.Queue{}
	sems := map[string]personality.Semaphore{}
	for _, c := range w.Channels {
		switch c.Kind {
		case "queue":
			queues[c.Name] = rt.NewQueue(c.Name, c.Arg)
		case "semaphore":
			sems[c.Name] = rt.NewSemaphore(c.Name, c.Arg)
		}
	}
	for _, td := range w.Tasks {
		td := td
		task := rt.TaskCreate(td.Name, core.Aperiodic, 0, 0, td.Prio)
		k.Spawn(td.Name, func(p *sim.Proc) {
			if td.Start > 0 {
				p.WaitFor(td.Start)
			}
			rt.Activate(p, task)
			for _, op := range td.Ops {
				switch op.Kind {
				case "delay":
					rt.Compute(p, op.Dur)
				case "send":
					queues[op.Ch].Send(p, 1)
				case "recv":
					queues[op.Ch].Recv(p)
				case "acquire":
					sems[op.Ch].Acquire(p)
				case "release":
					sems[op.Ch].Release(p)
				}
			}
			rt.Terminate(p)
		})
	}
	for _, irq := range w.IRQs {
		irq := irq
		sem := sems[irq.Sem]
		k.Spawn("irq:"+irq.Name, func(p *sim.Proc) {
			p.WaitFor(irq.At)
			for i := 0; i < irq.Count; i++ {
				if i > 0 {
					p.WaitFor(irq.Every)
				}
				rtos.InterruptEnter(p, irq.Name)
				sem.Release(p)
				rtos.InterruptReturn(p, irq.Name)
			}
		}).SetDaemon(true)
	}
	rtos.EnableWatchdog(w.WatchdogWindow)
	rtos.Start(nil)
	runErr := k.RunUntil(w.Horizon)
	d := rtos.Diagnosis()
	if d == nil {
		d = rtos.DiagnoseNow()
	}
	return d, runErr
}

// TestDiagnosisEquivalence runs deadlock, stall, hidden-stall and
// starvation workloads on both engines under every personality and
// requires the same run error and the same diagnosis, field for field
// and in its rendered form. TestEngineEquivalence cannot cover these
// paths: its scenarios are deadlock-free by construction.
func TestDiagnosisEquivalence(t *testing.T) {
	for _, tc := range diagCases() {
		for _, pers := range personality.Kinds() {
			tc, pers := tc, pers
			t.Run(tc.name+"/"+pers, func(t *testing.T) {
				w := tc.w
				w.Personality = pers
				gd, gErr := runDiagGoroutine(t, w)
				r := rtc.Run(w)
				if gd == nil || r.Diag == nil {
					t.Fatalf("missing diagnosis: goroutine=%v rtc=%v", gd, r.Diag)
				}
				if gd.Kind != tc.want {
					t.Errorf("goroutine diagnosis kind %s, want %s", gd.Kind, tc.want)
				}
				if fmt.Sprint(gErr) != fmt.Sprint(r.Err) {
					t.Errorf("run error differs:\n goroutine: %v\n rtc:       %v", gErr, r.Err)
				}
				if gd.Error() != r.Diag.Error() {
					t.Errorf("diagnosis text differs:\n goroutine: %s\n rtc:       %s", gd.Error(), r.Diag.Error())
				}
				if gd.Kind != r.Diag.Kind || gd.At != r.Diag.At || gd.PE != r.Diag.PE || gd.Window != r.Diag.Window ||
					!reflect.DeepEqual(gd.Cycle, r.Diag.Cycle) || !reflect.DeepEqual(gd.Blocked, r.Diag.Blocked) {
					t.Errorf("diagnosis fields differ:\n goroutine: %+v\n rtc:       %+v", *gd, *r.Diag)
				}
			})
		}
	}
}
