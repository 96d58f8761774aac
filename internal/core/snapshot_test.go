package core

import (
	"strings"
	"testing"
)

// codecRecord is one line's worth of fields of every kind the checkpoint
// codec formats.
type codecRecord struct {
	i    int
	i64  int64
	u8   uint8
	ok   bool
	word string
	text string
	ids  []int64
}

// state writes or reads r: the same calls both ways.
func (r *codecRecord) state(c *StateCodec) {
	c.Line("r i=%d i64=%d u8=%d ok=%t w=%s t=%q", &r.i, &r.i64, &r.u8, &r.ok, &r.word, &r.text)
	List(c, "ids", &r.ids)
}

// TestStateCodecRoundTrip writes records through a StateCodec and reads
// them back through the same calls: every value comes back, and reading
// what was written consumes the input exactly.
func TestStateCodecRoundTrip(t *testing.T) {
	recs := []codecRecord{
		{i: 0, i64: 0, u8: 0, ok: false, word: "x", text: "", ids: nil},
		{i: -7, i64: -1 << 63, u8: 255, ok: true, word: "rtcsnap/3", text: "plain", ids: []int64{-1, 0, 1}},
		{i: 1 << 40, i64: 1<<63 - 1, u8: 1, ok: true, word: "a=b", text: "quote \" backslash \\ tab \t nl \n é \x00", ids: []int64{42}},
	}
	w := NewStateEncoder(nil)
	w.Count("recs", len(recs))
	for i := range recs {
		recs[i].state(w)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	state := string(w.Bytes())
	if !strings.Contains(state, `t="quote \" backslash \\ tab \t nl \n é \x00"`) {
		t.Errorf("%%q is not written as Go quotes:\n%s", state)
	}

	r := NewStateDecoder(nil, w.Bytes())
	r.Count("recs", len(recs))
	got := make([]codecRecord, len(recs))
	for i := range got {
		got[i].state(r)
	}
	r.End()
	if err := r.Err(); err != nil {
		t.Fatalf("reading back what was written: %v\n%s", err, state)
	}
	for i, want := range recs {
		g := got[i]
		if g.i != want.i || g.i64 != want.i64 || g.u8 != want.u8 || g.ok != want.ok ||
			g.word != want.word || g.text != want.text || len(g.ids) != len(want.ids) {
			t.Errorf("record %d: got %+v, want %+v", i, g, want)
			continue
		}
		for j := range want.ids {
			if g.ids[j] != want.ids[j] {
				t.Errorf("record %d: ids %v, want %v", i, g.ids, want.ids)
			}
		}
	}
}

// TestStateCodecRefuses feeds lines a writer could not have produced:
// each read fails, and the first error sticks.
func TestStateCodecRefuses(t *testing.T) {
	const good = "r i=1 i64=2 u8=3 ok=true w=x t=\"y\"\nids 0\n"
	cases := []struct {
		name, state, want string
	}{
		{"uint8 out of range", "r i=1 i64=2 u8=256 ok=true w=x t=\"y\"\nids 0\n", "does not match"},
		{"negative uint8", "r i=1 i64=2 u8=-1 ok=true w=x t=\"y\"\nids 0\n", "does not match"},
		{"int64 out of range", "r i=1 i64=9223372036854775808 u8=3 ok=true w=x t=\"y\"\nids 0\n", "does not match"},
		{"plus sign", "r i=+1 i64=2 u8=3 ok=true w=x t=\"y\"\nids 0\n", "does not match"},
		{"leading zero", "r i=01 i64=2 u8=3 ok=true w=x t=\"y\"\nids 0\n", "does not match"},
		{"bool spelled 1", "r i=1 i64=2 u8=3 ok=1 w=x t=\"y\"\nids 0\n", "does not match"},
		{"raw-string quotes", "r i=1 i64=2 u8=3 ok=true w=x t=`y`\nids 0\n", "does not match"},
		{"needless escape", "r i=1 i64=2 u8=3 ok=true w=x t=\"\\x79\"\nids 0\n", "does not match"},
		{"unterminated quote", "r i=1 i64=2 u8=3 ok=true w=x t=\"y\nids 0\n", "does not match"},
		{"extra field", "r i=1 i64=2 u8=3 ok=true w=x t=\"y\" z\nids 0\n", "does not match"},
		{"wrong label", "r i=1 i64=2 u8=3 ok=true W=x t=\"y\"\nids 0\n", "does not match"},
		{"list longer than its count", "r i=1 i64=2 u8=3 ok=true w=x t=\"y\"\nids 1 5 6\n", "bad ids list length"},
		{"list element not a number", "r i=1 i64=2 u8=3 ok=true w=x t=\"y\"\nids 1 x\n", "bad list element"},
		{"negative list count", "r i=1 i64=2 u8=3 ok=true w=x t=\"y\"\nids -1\n", "bad ids list length"},
		{"blank line", "r i=1 i64=2 u8=3 ok=true w=x t=\"y\"\n\nids 0\n", "does not match"},
		{"truncated", "r i=1 i64=2 u8=3 ok=true w=x t=\"y\"\nids 0", "truncated"},
		{"trailing line", good + "ids 0\n", "input after line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r codecRecord
			c := NewStateDecoder(nil, []byte(tc.state))
			r.state(c)
			c.End()
			err := c.Err()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
			// The first error sticks: a later read does nothing.
			r.state(c)
			c.Count("more", 1)
			if c.Err() != err {
				t.Fatalf("error changed from %v to %v", err, c.Err())
			}
		})
	}

	var r codecRecord
	c := NewStateDecoder(nil, []byte(good))
	r.state(c)
	c.End()
	if err := c.Err(); err != nil || r.u8 != 3 || r.text != "y" {
		t.Fatalf("good input: %v, %+v", err, r)
	}
}
