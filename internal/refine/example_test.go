package refine_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/refine"
	"repro/internal/sim"
)

// One behavior tree, two models: the unscheduled specification overlaps
// the parallel branches, the refined architecture model serializes them
// on the RTOS — the paper's refinement in five lines of designer input.
func Example() {
	build := func() *refine.Behavior {
		return refine.Seq("top",
			refine.Leaf("init", func(x refine.Exec) { x.Delay(10) }),
			refine.Par("workers",
				refine.Leaf("fast", func(x refine.Exec) { x.Delay(20) }),
				refine.Leaf("slow", func(x refine.Exec) { x.Delay(40) }),
			),
		)
	}

	// Specification model (Figure 2(a)).
	k1 := sim.NewKernel()
	refine.RunUnscheduled(k1, nil, nil, build())
	if err := k1.Run(); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Printf("unscheduled end: %v (10 + max(20,40))\n", k1.Now())

	// Architecture model (Figure 2(b)): same tree + a task mapping.
	k2 := sim.NewKernel()
	rtos := core.New(k2, "CPU", core.PriorityPolicy{})
	refine.RunArchitecture(k2, rtos, nil, build(), refine.Mapping{
		"fast": {Priority: 1},
		"slow": {Priority: 2},
	})
	rtos.Start(nil)
	if err := k2.Run(); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Printf("architecture end: %v (10 + 20 + 40 serialized)\n", k2.Now())
	// Output:
	// unscheduled end: 50ns (10 + max(20,40))
	// architecture end: 70ns (10 + 20 + 40 serialized)
}
