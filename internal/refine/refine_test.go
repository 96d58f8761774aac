package refine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func delayLeaf(name string, d sim.Time) *Behavior {
	return Leaf(name, func(x Exec) { x.Delay(d) })
}

func TestValidate(t *testing.T) {
	good := Seq("root", delayLeaf("a", 1), Par("p", delayLeaf("b", 1), delayLeaf("c", 1)))
	if err := good.Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	dup := Seq("root", delayLeaf("a", 1), delayLeaf("a", 1))
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names not rejected: %v", err)
	}
	empty := Seq("root")
	if err := empty.Validate(); err == nil {
		t.Error("empty composite not rejected")
	}
	unnamed := Seq("root", &Behavior{})
	if err := unnamed.Validate(); err == nil {
		t.Error("unnamed behavior not rejected")
	}
}

func TestNames(t *testing.T) {
	tree := Seq("r", delayLeaf("a", 1), Par("p", delayLeaf("b", 1)))
	got := strings.Join(tree.Names(), ",")
	if got != "r,a,p,b" {
		t.Errorf("names = %s, want r,a,p,b", got)
	}
}

func TestLeafNilBodyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Leaf with nil body did not panic")
		}
	}()
	Leaf("bad", nil)
}

func TestUnscheduledParOverlaps(t *testing.T) {
	// Specification model: parallel behaviors overlap in time.
	k := sim.NewKernel()
	rec := trace.New("spec")
	root := Seq("root",
		delayLeaf("B1", 100),
		Par("par", delayLeaf("B2", 200), delayLeaf("B3", 150)),
	)
	RunUnscheduled(k, rec, rec, root)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 300 {
		t.Errorf("end = %v, want 300 (100 + max(200,150))", k.Now())
	}
	if ov := rec.Overlap("B2", "B3"); ov != 150 {
		t.Errorf("overlap = %v, want 150", ov)
	}
	if bt := rec.BusyTime("B1"); bt != 100 {
		t.Errorf("B1 busy = %v, want 100", bt)
	}
}

func TestArchitectureSerializes(t *testing.T) {
	// Architecture model: the same tree serializes; delays accumulate.
	k := sim.NewKernel()
	os := core.New(k, "PE", core.PriorityPolicy{})
	rec := trace.New("arch")
	telemetry.Attach(os, rec)
	root := Seq("root",
		delayLeaf("B1", 100),
		Par("par", delayLeaf("B2", 200), delayLeaf("B3", 150)),
	)
	RunArchitecture(k, os, rec, root, Mapping{
		"root": {Priority: 0},
		"B2":   {Priority: 2},
		"B3":   {Priority: 1},
	})
	os.Start(nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 450 {
		t.Errorf("end = %v, want 450 (100 + 200 + 150 serialized)", k.Now())
	}
	if ov := rec.Overlap("B2", "B3"); ov != 0 {
		t.Errorf("overlap = %v, want 0 (serialized)", ov)
	}
	// B3 has the higher priority: it runs to completion first.
	ivB3 := rec.ExecIntervals("B3")
	ivB2 := rec.ExecIntervals("B2")
	if len(ivB3) == 0 || len(ivB2) == 0 {
		t.Fatalf("missing intervals: B2=%v B3=%v", ivB2, ivB3)
	}
	if ivB3[0].Start != 100 || ivB3[len(ivB3)-1].End != 250 {
		t.Errorf("B3 ran %v, want [100,250]", ivB3)
	}
	if ivB2[0].Start != 250 {
		t.Errorf("B2 started at %v, want 250", ivB2[0].Start)
	}
}

func TestNestedParRefinement(t *testing.T) {
	// Nested par statements create nested fork/join task structures.
	k := sim.NewKernel()
	os := core.New(k, "PE", core.PriorityPolicy{})
	rec := trace.New("arch")
	telemetry.Attach(os, rec)
	root := Seq("root",
		Par("outer",
			Seq("left", delayLeaf("l1", 10), Par("inner", delayLeaf("i1", 20), delayLeaf("i2", 30))),
			delayLeaf("right", 40),
		),
	)
	RunArchitecture(k, os, rec, root, Mapping{})
	os.Start(nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 100 {
		t.Errorf("end = %v, want 100 (10+20+30+40 serialized)", k.Now())
	}
	// Every leaf became (or ran within) a task; tasks must include the
	// par children.
	var names []string
	for _, task := range os.Tasks() {
		names = append(names, task.Name())
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"root", "left", "right", "i1", "i2"} {
		if !strings.Contains(joined, want) {
			t.Errorf("tasks %s missing %q", joined, want)
		}
	}
}

func TestMappingDefaults(t *testing.T) {
	m := Mapping{"a": {Priority: 7}}
	if s := m.spec("a", 3); s.Priority != 7 {
		t.Errorf("explicit spec priority = %d, want 7", s.Priority)
	}
	if s := m.spec("unknown", 3); s.Priority != 103 || s.Type != core.Aperiodic {
		t.Errorf("default spec = %+v, want prio 103 aperiodic", s)
	}
}

func TestMarkersRecordedInBothModels(t *testing.T) {
	build := func() *Behavior {
		return Seq("root", Leaf("L", func(x Exec) {
			x.Delay(5)
			x.Marker("checkpoint", 42)
		}))
	}
	// Spec.
	k1 := sim.NewKernel()
	rec1 := trace.New("spec")
	RunUnscheduled(k1, rec1, rec1, build())
	if err := k1.Run(); err != nil {
		t.Fatal(err)
	}
	// Arch.
	k2 := sim.NewKernel()
	os := core.New(k2, "PE", core.PriorityPolicy{})
	rec2 := trace.New("arch")
	RunArchitecture(k2, os, rec2, build(), Mapping{})
	os.Start(nil)
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range []*trace.Recorder{rec1, rec2} {
		ts := rec.MarkerTimes("checkpoint")
		if len(ts) != 1 || ts[0] != 5 {
			t.Errorf("model %d: checkpoint markers = %v, want [5]", i, ts)
		}
	}
}

func TestExecReportsBehaviorName(t *testing.T) {
	k := sim.NewKernel()
	var got string
	root := Seq("root", Leaf("worker", func(x Exec) { got = x.BehaviorName() }))
	RunUnscheduled(k, nil, nil, root)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "worker" {
		t.Errorf("behavior name = %q, want worker", got)
	}
}

func TestPeriodicTaskInMapping(t *testing.T) {
	// A behavior mapped as periodic loops via TaskEndCycle... the refine
	// layer creates it with the right parameters; verify they arrive.
	k := sim.NewKernel()
	os := core.New(k, "PE", core.PriorityPolicy{})
	root := Seq("root", Par("p", delayLeaf("per", 5)))
	RunArchitecture(k, os, nil, root, Mapping{
		"per": {Priority: 1, Type: core.Periodic, Period: 100, WCET: 5},
	})
	os.Start(nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var found *core.Task
	for _, task := range os.Tasks() {
		if task.Name() == "per" {
			found = task
		}
	}
	if found == nil {
		t.Fatal("periodic task not created")
	}
	if found.Type() != core.Periodic || found.Period() != 100 || found.WCET() != 5 {
		t.Errorf("task params = %v/%v/%v", found.Type(), found.Period(), found.WCET())
	}
}
