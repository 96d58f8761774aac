package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// VCD writes the trace as a Value Change Dump file (IEEE 1364), the
// standard waveform interchange format of EDA tooling, so schedules can
// be inspected in GTKWave and friends alongside RTL signals. Each task or
// behavior becomes a 1-bit wire that is high while the task occupies the
// CPU (running or modeled delay); each interrupt line becomes a wire that
// pulses during ISR service.
func (r *Recorder) VCD(w io.Writer) error {
	tasks := r.Tasks()
	irqs := r.irqNames()
	code := vcdID

	if _, err := fmt.Fprintf(w, "$timescale 1ns $end\n$scope module %s $end\n", ident(r.name)); err != nil {
		return err
	}
	names := newIdentSet()
	for i, t := range tasks {
		if _, err := fmt.Fprintf(w, "$var wire 1 %s %s $end\n", code(i), names.unique(t)); err != nil {
			return err
		}
	}
	for i, irq := range irqs {
		if _, err := fmt.Fprintf(w, "$var wire 1 %s %s $end\n", code(len(tasks)+i), names.unique(irq)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(w, "$upscope $end\n$enddefinitions $end\n"); err != nil {
		return err
	}

	// Collect value changes: (time, code, value).
	type change struct {
		at   sim.Time
		code string
		val  byte
		seq  int
	}
	var changes []change
	seq := 0
	add := func(at sim.Time, c string, v byte) {
		changes = append(changes, change{at, c, v, seq})
		seq++
	}
	for i, t := range tasks {
		add(0, code(i), '0')
		for _, iv := range r.ExecIntervals(t) {
			add(iv.Start, code(i), '1')
			add(iv.End, code(i), '0')
		}
	}
	for i, irq := range irqs {
		c := code(len(tasks) + i)
		add(0, c, '0')
		want := kindLabel(KindIRQ, r.lookup(irq))
		for _, pg := range r.pages {
			for j := range pg {
				if e := &pg[j]; e.kl == want {
					if e.arg == 1 {
						add(e.at, c, '1')
					} else {
						add(e.at, c, '0')
					}
				}
			}
		}
	}
	sort.SliceStable(changes, func(i, j int) bool {
		if changes[i].at != changes[j].at {
			return changes[i].at < changes[j].at
		}
		return changes[i].seq < changes[j].seq
	})

	last := sim.Time(-1)
	for _, c := range changes {
		if c.at != last {
			if _, err := fmt.Fprintf(w, "#%d\n", int64(c.at)); err != nil {
				return err
			}
			last = c.at
		}
		if _, err := fmt.Fprintf(w, "%c%s\n", c.val, c.code); err != nil {
			return err
		}
	}
	return nil
}

// irqNames returns the sorted interrupt-line names in the trace.
func (r *Recorder) irqNames() []string {
	seen := make([]bool, len(r.strs))
	names := []string{}
	for _, pg := range r.pages {
		for i := range pg {
			if e := &pg[i]; e.kind() == KindIRQ && e.label() != 0 && !seen[e.label()] {
				seen[e.label()] = true
				names = append(names, r.strs[e.label()])
			}
		}
	}
	sort.Strings(names)
	return names
}

// vcdID maps a signal index to a unique VCD identifier code over the
// printable ASCII alphabet '!'..'~' (94 symbols), using bijective base-94
// for indexes past the single-character range: 0..93 -> "!".."~",
// 94 -> "!!", 95 -> "!\"", ... A single-character scheme silently
// overflows into unprintable or colliding codes once a trace holds more
// than 94 tasks+IRQs, corrupting the dump for exactly the big SMP/DSE
// sweeps where a waveform is most useful.
func vcdID(i int) string {
	const base = '~' - '!' + 1
	buf := make([]byte, 0, 3)
	for ; i >= 0; i = i/base - 1 {
		buf = append(buf, byte('!'+i%base))
	}
	// Digits were emitted least-significant first.
	for l, r := 0, len(buf)-1; l < r; l, r = l+1, r-1 {
		buf[l], buf[r] = buf[r], buf[l]
	}
	return string(buf)
}

// identSet hands out sanitized signal names, de-duplicating collisions
// (distinct task names can sanitize to the same identifier: "a b" and
// "a?b" both become "a_b") with a numeric suffix so every $var in a
// scope keeps a distinct reference name.
type identSet struct{ used map[string]bool }

func newIdentSet() *identSet { return &identSet{used: map[string]bool{}} }

func (s *identSet) unique(name string) string {
	base := ident(name)
	out := base
	for n := 2; s.used[out]; n++ {
		out = fmt.Sprintf("%s_%d", base, n)
	}
	s.used[out] = true
	return out
}

// ident sanitizes a name into a VCD identifier (no whitespace).
func ident(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '.', r == '-':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "unnamed"
	}
	return string(out)
}
