package sdl

import (
	"embed"
	"fmt"

	"repro/internal/sim"
)

// builtin holds the paper's example models: figure3 (the Figure 3 design),
// jpeg (the JPEG encoder's specification and software mapping) and
// jpeg_hwsw (its HW/SW partition).
//
//go:embed models/*.sdl
var builtin embed.FS

// Load parses the built-in model name (e.g. "figure3"). Every call
// returns a fresh parse, so callers may edit the model before running it.
func Load(name string) (*Model, error) {
	src, err := builtin.ReadFile("models/" + name + ".sdl")
	if err != nil {
		return nil, fmt.Errorf("sdl: no built-in model %q", name)
	}
	return Parse(string(src))
}

// SplitDelay splits the delay statement at index i of leaf behavior name
// into n annotations of the same total: repeat n-1 { delay d/n } followed
// by delay d/n + d%n. Finer annotations let the coarse time model serve
// an interrupt earlier (paper Section 4.3).
func (m *Model) SplitDelay(name string, i, n int) error {
	for bi := range m.Behaviors {
		b := &m.Behaviors[bi]
		if b.Name != name {
			continue
		}
		if i < 0 || i >= len(b.Stmts) || b.Stmts[i].Op != OpDelay {
			return fmt.Errorf("sdl: behavior %s: statement %d is not a delay", name, i)
		}
		if n <= 1 {
			return nil
		}
		d := b.Stmts[i].Dur
		per := d / sim.Time(n)
		split := []Stmt{
			{Op: OpRepeat, Count: n - 1, Body: []Stmt{{Op: OpDelay, Dur: per}}},
			{Op: OpDelay, Dur: per + d - per*sim.Time(n)},
		}
		b.Stmts = append(b.Stmts[:i], append(split, b.Stmts[i+1:]...)...)
		return nil
	}
	return fmt.Errorf("sdl: no behavior %q", name)
}
