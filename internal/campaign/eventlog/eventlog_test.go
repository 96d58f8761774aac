package eventlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// sampleLog builds a valid n-record log image.
func sampleLog(n int) []byte {
	var b bytes.Buffer
	for i := 1; i <= n; i++ {
		b.Write(Encode(Record{Seq: uint64(i), Type: "cell.done", Data: []byte(`{"idx":` + string(rune('0'+i)) + `}`)}))
	}
	return b.Bytes()
}

// TestAppendReplayRoundTrip: records appended through a Log replay back
// identically through Open.
func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	type payload struct {
		Job string `json:"job"`
		Idx int    `json:"idx"`
	}
	for i := 0; i < 5; i++ {
		if err := l.Append("cell.started", payload{Job: "job-1", Idx: i}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Seq() != 5 {
		t.Fatalf("Seq = %d, want 5", l.Seq())
	}
	l.Close()

	l2, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Type != "cell.started" {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Appending after replay continues the sequence.
	if err := l2.Append("job.done", payload{Job: "job-1"}); err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != 6 {
		t.Fatalf("Seq after resume-append = %d, want 6", l2.Seq())
	}
}

// TestRecoverTruncatedTail: a torn final record is discarded and the file
// repaired so appends continue from the last valid record.
func TestRecoverTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	img := sampleLog(3)
	recs3, _ := Decode(img)
	for cut := len(img) - 1; cut > len(img)-len(Encode(recs3[2])); cut-- {
		if err := os.WriteFile(path, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut %d: recovered %d records, want 2", cut, len(recs))
		}
		if err := l.Append("next", map[string]int{"v": 1}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		again, recs, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		again.Close()
		if len(recs) != 3 || recs[2].Type != "next" || recs[2].Seq != 3 {
			t.Fatalf("cut %d: after repair+append got %d records, last %+v", cut, len(recs), recs[len(recs)-1])
		}
	}
}

// TestRecoverCorruptChecksum: a bit flip inside a record ends the replay
// at the last valid record instead of serving corrupted data.
func TestRecoverCorruptChecksum(t *testing.T) {
	img := sampleLog(3)
	first := Encode(Record{Seq: 1, Type: "cell.done", Data: []byte(`{"idx":1}`)})
	// Flip a payload byte of record 2.
	img[len(first)+len(magic)+12] ^= 0x20
	recs, valid := Decode(img)
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	if valid != len(first) {
		t.Fatalf("valid prefix %d, want %d", valid, len(first))
	}
}

// TestRecoverDuplicateSequence: a replayed duplicate (or gapped) sequence
// number ends the replay — the log never fails open past a broken chain.
func TestRecoverDuplicateSequence(t *testing.T) {
	var b bytes.Buffer
	b.Write(Encode(Record{Seq: 1, Type: "a"}))
	b.Write(Encode(Record{Seq: 2, Type: "b"}))
	b.Write(Encode(Record{Seq: 2, Type: "b"})) // duplicate
	recs, _ := Decode(b.Bytes())
	if len(recs) != 2 {
		t.Fatalf("duplicate seq: recovered %d records, want 2", len(recs))
	}
	b.Reset()
	b.Write(Encode(Record{Seq: 1, Type: "a"}))
	b.Write(Encode(Record{Seq: 3, Type: "c"})) // gap
	recs, _ = Decode(b.Bytes())
	if len(recs) != 1 {
		t.Fatalf("gapped seq: recovered %d records, want 1", len(recs))
	}
}

// TestCrashDrill: the n-th append tears mid-record and latches the log
// shut; reopening recovers exactly the records committed before the
// crash.
func TestCrashDrill(t *testing.T) {
	for torn := 0; torn < 20; torn += 7 {
		path := filepath.Join(t.TempDir(), "events.log")
		l, _, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		l.SetCrashAfter(3, torn)
		if err := l.Append("a", nil); err != nil {
			t.Fatal(err)
		}
		if err := l.Append("b", nil); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := l.Append("c", nil); !errors.Is(err, ErrCrash) {
			t.Fatalf("3rd append err = %v, want ErrCrash", err)
		}
		if err := l.Append("d", nil); !errors.Is(err, ErrCrash) {
			t.Fatalf("post-crash append err = %v, want ErrCrash", err)
		}
		l.Close()
		l2, recs, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if len(recs) != 2 || recs[0].Type != "a" || recs[1].Type != "b" {
			t.Fatalf("torn %d: recovered %d records %+v, want [a b]", torn, len(recs), recs)
		}
	}
}

// FuzzEventLog: replay never panics, never accepts bytes past the valid
// prefix, and the recovered prefix is stable — decoding it again yields
// the same records, and appending a fresh record to it extends the chain
// by exactly one. The seed corpus covers the recovery cases the
// kill-and-restart harness produces: truncated tail, corrupt checksum,
// duplicate sequence.
func FuzzEventLog(f *testing.F) {
	img := sampleLog(3)
	f.Add(img)                         // fully valid
	f.Add(img[:len(img)-5])            // truncated tail
	f.Add([]byte{})                    // empty
	f.Add([]byte("EL1 deadbeef {}\n")) // corrupt checksum
	dup := append(append([]byte{}, img...), Encode(Record{Seq: 3, Type: "cell.done"})...)
	f.Add(dup) // duplicate sequence
	corrupt := append([]byte{}, img...)
	corrupt[len(img)/2] ^= 0xff
	f.Add(corrupt) // bit flip mid-log
	f.Add([]byte("garbage with no structure at all\nEL1 x\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := Decode(data)
		if valid > len(data) {
			t.Fatalf("valid prefix %d exceeds input %d", valid, len(data))
		}
		again, validAgain := Decode(data[:valid])
		if validAgain != valid || len(again) != len(recs) {
			t.Fatalf("valid prefix unstable: %d/%d records, %d/%d bytes",
				len(again), len(recs), validAgain, valid)
		}
		for i := range recs {
			if again[i].Seq != recs[i].Seq || again[i].Type != recs[i].Type ||
				!bytes.Equal(again[i].Data, recs[i].Data) {
				t.Fatalf("record %d differs on re-decode", i)
			}
			if recs[i].Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d", i, recs[i].Seq)
			}
		}
		// The recovered prefix must accept a continuation.
		ext := append(append([]byte{}, data[:valid]...),
			Encode(Record{Seq: uint64(len(recs)) + 1, Type: "x"})...)
		extRecs, extValid := Decode(ext)
		if len(extRecs) != len(recs)+1 || extValid != len(ext) {
			t.Fatalf("continuation rejected: %d records, %d/%d bytes", len(extRecs), extValid, len(ext))
		}
	})
}
