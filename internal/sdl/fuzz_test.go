package sdl

import (
	"testing"
)

// FuzzParse drives the SDL parser with arbitrary input. The properties
// under test: Parse never panics, always returns exactly one of (model,
// error), and is a pure function of its input (the same source parses to
// the same outcome twice — the parser keeps no hidden state).
//
// The seed corpus combines the valid grammar from sdl_test.go with every
// malformed-input family from parse_error_test.go; additional corpus
// entries live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// Valid sources covering the whole grammar.
		`channel c1 queue 1
behavior B1 { delay 100ns send c1 1 }
behavior B2 { recv c1 marker got 0 }
compose main par { B1 B2 }
top main
task B1 priority 1
task B2 priority 2`,
		`channel s semaphore 0
behavior isr { delay 1ns }
behavior drv { acquire s marker woke 0 }
compose main par { drv }
top main
irq ext at 280ns releases s`,
		`behavior w { repeat 4 { delay 10ns marker step 0 } }
compose main seq { w }
top main
task main priority 0 period 100ns`,
		`behavior a { delay 5ns signal hs }
behavior b { waitsig hs }
channel hs handshake 0
compose main par { a b }
top main`,
		// Malformed inputs: one per parser error family.
		`channel`,
		`channel q queue x`,
		`behavior a delay 1`,
		`behavior a { delay soon } top a`,
		"channel q queue 1\nbehavior a { send q } top a",
		`behavior a { marker m } top a`,
		`behavior a { repeat x { } } top a`,
		`behavior a { repeat 3 delay 1 } top a`,
		`behavior a { delay 1 } compose m pipe { a } top m`,
		`behavior a { delay 1 } compose m seq { a`,
		"channel s semaphore 0\nbehavior a { delay 1 } top a\nirq x releases s",
		"channel s semaphore 0\nbehavior a { delay 1 } top a\nirq x at never releases s",
		"channel s semaphore 0\nbehavior a { delay 1 } top a\nirq x at 5 releases s every 10",
		`behavior a { delay 1 } top a task a`,
		`behavior a { delay 1 } top a task a priority high`,
		`behavior a { delay 1 } top a task a priority 1 period soon`,
		`behavior a { delay -5 } top a`,
		`behavior a { repeat -1 { delay 1 } } top a`,
		"channel q queue 1\nbehavior a { acquire q } top a",
		"channel s semaphore 0\nbehavior a { waitsig s } top a",
		"channel c queue 1\nchannel c queue 1\nbehavior a { delay 1 } top a",
		`behavior a { delay 1 } compose m seq { } top m`,
		`banana`,
		`behavior a { delay 1 }`,
		`behavior a { frob 1 } top a`,
		`behavior a { send q 1 } top a`,
		`behavior a { delay 1 } behavior a { delay 1 } top a`,
		`behavior a { delay 1 } compose m seq { a ghost } top m`,
		`behavior a { delay 1`,
		`behavior a { delay 1 } top a task ghost priority 1`,
		"", " ", "\n", "{", "}", "top", "task", "irq", "compose m",
	}
	// The built-in models, multi-PE links with an isr clause included.
	for _, name := range []string{"figure3", "jpeg", "jpeg_hwsw"} {
		src, err := builtin.ReadFile("models/" + name + ".sdl")
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(src))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m1, err1 := Parse(src)
		if (m1 == nil) == (err1 == nil) {
			t.Fatalf("Parse returned model=%v err=%v: want exactly one", m1 != nil, err1)
		}
		m2, err2 := Parse(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Parse is not deterministic: err1=%v err2=%v", err1, err2)
		}
		if err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("Parse error message not deterministic: %q vs %q", err1, err2)
		}
		if m1 != nil {
			if m1.Top == "" {
				t.Fatalf("accepted model has no top behavior")
			}
			if len(m2.Behaviors) != len(m1.Behaviors) || len(m2.Channels) != len(m1.Channels) {
				t.Fatalf("Parse model shape not deterministic")
			}
		}
	})
}
