package refine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestLoopRepeatsChild(t *testing.T) {
	count := 0
	root := Seq("root", Loop("l", 5, Leaf("body", func(x Exec) {
		count++
		x.Delay(10)
	})))
	k := sim.NewKernel()
	RunUnscheduled(k, nil, nil, root)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("body ran %d times, want 5", count)
	}
	if k.Now() != 50 {
		t.Errorf("end = %v, want 50", k.Now())
	}
}

func TestLoopZeroIterations(t *testing.T) {
	ran := false
	root := Seq("root", Loop("l", 0, Leaf("body", func(x Exec) { ran = true })))
	k := sim.NewKernel()
	RunUnscheduled(k, nil, nil, root)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("zero-iteration loop body executed")
	}
}

func TestLoopInArchitectureModel(t *testing.T) {
	// A loop inside a par child executes within that child's task.
	root := Seq("root", Par("p",
		Loop("la", 3, Leaf("a", func(x Exec) { x.Delay(10) })),
		Leaf("b", func(x Exec) { x.Delay(5) }),
	))
	k := sim.NewKernel()
	os := core.New(k, "PE", core.PriorityPolicy{})
	RunArchitecture(k, os, nil, root, Mapping{"la": {Priority: 1}, "b": {Priority: 2}})
	os.Start(nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 35 {
		t.Errorf("end = %v, want 35 (3×10 + 5 serialized)", k.Now())
	}
}

func TestFSMFollowsTransitions(t *testing.T) {
	var visits []string
	mkState := func(name string, d sim.Time) *Behavior {
		return Leaf(name, func(x Exec) {
			visits = append(visits, name)
			x.Delay(d)
		})
	}
	// idle -> work -> work -> done -> (exit)
	workCount := 0
	fsm := FSM("ctrl", "idle", func(from string, x Exec) string {
		switch from {
		case "idle":
			return "work"
		case "work":
			workCount++
			if workCount < 2 {
				return "work"
			}
			return "done"
		default:
			return ""
		}
	}, mkState("idle", 5), mkState("work", 10), mkState("done", 1))

	k := sim.NewKernel()
	RunUnscheduled(k, nil, nil, Seq("root", fsm))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "idle,work,work,done"
	if got := strings.Join(visits, ","); got != want {
		t.Errorf("visits = %s, want %s", got, want)
	}
	if k.Now() != 26 { // 5 + 10 + 10 + 1
		t.Errorf("end = %v, want 26", k.Now())
	}
}

func TestFSMInArchitectureModel(t *testing.T) {
	var visits []string
	fsm := FSM("ctrl", "s1", func(from string, x Exec) string {
		if from == "s1" {
			return "s2"
		}
		return ""
	},
		Leaf("s1", func(x Exec) { visits = append(visits, "s1"); x.Delay(10) }),
		Leaf("s2", func(x Exec) { visits = append(visits, "s2"); x.Delay(20) }),
	)
	k := sim.NewKernel()
	os := core.New(k, "PE", core.PriorityPolicy{})
	rec := trace.New("arch")
	telemetry.Attach(os, rec)
	RunArchitecture(k, os, rec, Seq("root", fsm), Mapping{})
	os.Start(nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(visits, ",") != "s1,s2" {
		t.Errorf("visits = %v", visits)
	}
	if k.Now() != 30 {
		t.Errorf("end = %v, want 30", k.Now())
	}
}

func TestFSMValidate(t *testing.T) {
	bad := FSM("f", "missing", nil, Leaf("s", func(x Exec) {}))
	if err := Seq("root", bad).Validate(); err == nil ||
		!strings.Contains(err.Error(), "start state") {
		t.Errorf("bad start state not rejected: %v", err)
	}
	empty := &Behavior{name: "f", kind: kindFSM}
	if err := Seq("root", empty).Validate(); err == nil {
		t.Error("FSM without states not rejected")
	}
	badLoop := &Behavior{name: "l", kind: kindLoop}
	if err := Seq("root2", badLoop).Validate(); err == nil {
		t.Error("loop without child not rejected")
	}
}

func TestFSMUnknownTransitionPanics(t *testing.T) {
	fsm := FSM("f", "a", func(from string, x Exec) string { return "ghost" },
		Leaf("a", func(x Exec) {}))
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("unknown transition target did not panic")
		}
	}()
	RunUnscheduled(k, nil, nil, Seq("root", fsm))
	_ = k.Run()
}

func TestLoopNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative loop count did not panic")
		}
	}()
	Loop("l", -1, Leaf("x", func(x Exec) {}))
}
