package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenSet is the journal golden's base task set: periodic and
// aperiodic tasks (so the canonical form prints compute segments) and a
// non-ASCII task name (so it quotes an escaped rune).
const goldenSet = `{
  "policy": "priority",
  "horizonMs": 5,
  "tasks": [
    {"name": "ctrl", "periodUs": 1000, "wcetUs": 250, "prio": 1},
    {"name": "dsp-é", "periodUs": 2000, "wcetUs": 500, "prio": 2},
    {"name": "io", "type": "aperiodic", "prio": 3, "startUs": 300, "computeUs": [120, 80, 40]}
  ]
}`

// goldenSweep fans goldenSet out to 24 cells; the one-value quantumUs
// and horizonMs axes route numbers through the axis parser.
const goldenSweep = `{"base": ` + goldenSet + `, "axes": [
  {"name": "policy", "values": ["priority", "rr", "rm", "edf"]},
  {"name": "personality", "values": ["generic", "itron", "osek"]},
  {"name": "engine", "values": ["goroutine", "rtc"]},
  {"name": "quantumUs", "values": ["500"]},
  {"name": "horizonMs", "values": ["5"]}
]}`

// TestJournalGolden pins the bytes a one-worker campaign writes: the
// event log (payloads, idempotency and cell keys, result hashes, signed
// receipts), each assembled result and each receipt. Cell keys hash
// dse.Canonical, journal lines come from eventlog.Encode and axis values
// go through the dse job's parser, so a change to any of the three that
// moves a byte fails here — and would orphan every persisted cache
// directory and journal.
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Jobs: 1, Key: []byte("journal-golden-key")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	want := map[string]string{
		"result taskset":  "c7ddc3cb5be3ea06512801f4b93d123bc05a7b1914e3150e183c2f55881eaf9c",
		"receipt taskset": "b0ccd7c454259e73a44d034e45535b8e4f8b800108590b6d49b7bc6aebf4a81f",
		"result dse":      "8dbab2154dcd7f2c55810739cd69b9be1914101ec72285bac14ffb9b9df3bf27",
		"receipt dse":     "f5ffba52a704de6686742aeb9653c2440eaf97ab723aefb89f39a24cfa7f86f8",
		"events.log":      "0b4a6d0c6e66ebf0f40a65fb890e8480ab15e1fad79cb6f3a8951e98e8e0ac92",
	}
	got := map[string]string{}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, sub := range []struct{ kind, payload string }{
		{KindTaskset, goldenSet},
		{KindDSE, goldenSweep},
	} {
		// One job at a time: the journal order is then fixed.
		id, _, err := s.Submit(sub.kind, []byte(sub.payload))
		if err != nil {
			t.Fatalf("%s: %v", sub.kind, err)
		}
		waitDone(t, s, id)
		res, err := s.Result(id)
		if err != nil {
			t.Fatalf("%s: %v", sub.kind, err)
		}
		rcpt, err := s.Receipt(id)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := json.Marshal(rcpt)
		if err != nil {
			t.Fatal(err)
		}
		got["result "+sub.kind] = sum(res)
		got["receipt "+sub.kind] = sum(rb)
	}
	log, err := os.ReadFile(filepath.Join(dir, "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	got["events.log"] = sum(log)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s sha256 = %s, want %s", name, got[name], w)
		}
	}
	if t.Failed() {
		t.Logf("events.log:\n%s", log)
	}
}
