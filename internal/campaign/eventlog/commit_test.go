package eventlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flakyFile passes writes through to a real file, counting them, and
// makes the next fail writes fail: each writes only its first short
// bytes and returns err (a nil err makes it a silent short write).
type flakyFile struct {
	file
	writes int
	fail   int
	short  int
	err    error
}

func (f *flakyFile) Write(b []byte) (int, error) {
	f.writes++
	if f.fail == 0 {
		return f.file.Write(b)
	}
	f.fail--
	n, _ := f.file.Write(b[:min(f.short, len(b))])
	return n, f.err
}

// openFlaky opens a fresh log whose file is wrapped in a flakyFile.
func openFlaky(t *testing.T) (*Log, *flakyFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.log")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := &flakyFile{file: l.f}
	l.f = ff
	return l, ff, path
}

func appendAll(t *testing.T, l *Log, types ...string) {
	t.Helper()
	for _, typ := range types {
		if err := l.Append(typ, map[string]string{"job": "job-000001"}); err != nil {
			t.Fatalf("append %s: %v", typ, err)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// reopenTypes reopens the log at path and returns its records' types.
func reopenTypes(t *testing.T, path string) string {
	t.Helper()
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	var types []string
	for _, r := range recs {
		types = append(types, r.Type)
	}
	return strings.Join(types, " ")
}

// TestAppendBuffersUntilCommit: Append leaves the file as it is; Commit
// writes every buffered record with one write, and a Commit with
// nothing buffered writes nothing.
func TestAppendBuffersUntilCommit(t *testing.T) {
	l, ff, path := openFlaky(t)
	appendAll(t, l, "a", "b", "c")
	if n := fileSize(t, path); n != 0 || ff.writes != 0 {
		t.Fatalf("after 3 appends: file %d bytes, %d writes; want 0 and 0", n, ff.writes)
	}
	if l.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3 (appended records count)", l.Seq())
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := Decode(data)
	if ff.writes != 1 || len(recs) != 3 || valid != len(data) {
		t.Fatalf("after Commit: %d writes, %d records, %d/%d valid bytes; want 1 write of 3 records",
			ff.writes, len(recs), valid, len(data))
	}
	appendAll(t, l, "d")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenTypes(t, path); got != "a b c d" || ff.writes != 2 {
		t.Fatalf("after Close: records %q, %d writes; want \"a b c d\" and 2", got, ff.writes)
	}
}

// TestPendingLimitCommits: an Append that leaves more than pendingLimit
// bytes buffered writes them without waiting for Commit.
func TestPendingLimitCommits(t *testing.T) {
	l, ff, path := openFlaky(t)
	defer l.Close()
	big := strings.Repeat("x", 4096)
	for i := 0; fileSize(t, path) == 0; i++ {
		if i*len(big) > 2*pendingLimit {
			t.Fatalf("%d appends of %d bytes and nothing written", i, len(big))
		}
		if err := l.Append("big", big); err != nil {
			t.Fatal(err)
		}
	}
	if fileSize(t, path) <= pendingLimit || ff.writes != 1 {
		t.Fatalf("auto-commit wrote %d bytes in %d writes, want more than %d in 1",
			fileSize(t, path), ff.writes, pendingLimit)
	}
}

// TestKillLosesUncommitted: a kill loses the records appended since the
// last commit, and only those.
func TestKillLosesUncommitted(t *testing.T) {
	l, _, path := openFlaky(t)
	appendAll(t, l, "a", "b")
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "c", "d")
	l.SetCrashAfter(1, 0)
	if err := l.Append("e", nil); !errors.Is(err, ErrCrash) {
		t.Fatalf("armed append err = %v, want ErrCrash", err)
	}
	if err := l.Commit(); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash Commit err = %v, want ErrCrash", err)
	}
	if err := l.Close(); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash Close err = %v, want ErrCrash", err)
	}
	if got := reopenTypes(t, path); got != "a b" {
		t.Fatalf("recovered %q, want the committed \"a b\"", got)
	}
}

// TestCrashTornCutsUncommittedTail: the crash drill's torn bytes come
// from the whole uncommitted tail — the buffered records and the
// crashing one — so a kill can leave some buffered records whole on
// disk and a torn one after them.
func TestCrashTornCutsUncommittedTail(t *testing.T) {
	data := map[string]string{"job": "job-000001"}
	raw, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(seq uint64, typ string) []byte { return Encode(Record{Seq: seq, Type: typ, Data: raw}) }
	committed := enc(1, "a")
	tail := append(append(enc(2, "b"), enc(3, "c")...), enc(4, "d")...)
	for torn := 0; torn <= len(tail)+5; torn += 11 {
		l, _, path := openFlaky(t)
		appendAll(t, l, "a")
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, "b", "c")
		l.SetCrashAfter(1, torn)
		if err := l.Append("d", data); !errors.Is(err, ErrCrash) {
			t.Fatalf("torn %d: armed append err = %v, want ErrCrash", torn, err)
		}
		l.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte(nil), committed...), tail[:min(torn, len(tail))]...)
		if !bytes.Equal(got, want) {
			t.Fatalf("torn %d: file holds\n%q\nwant the commit plus %d tail bytes\n%q", torn, got, torn, want)
		}
		whole, _ := Decode(want)
		types := reopenTypes(t, path)
		if len(whole) == 0 || strings.Count(types, " ")+1 != len(whole) {
			t.Fatalf("torn %d: recovered %q, want the %d whole records on disk", torn, types, len(whole))
		}
	}
}

// TestWriteFailureLatches: after a failed or short write every later
// Append and Commit returns the first error and writes nothing, even
// once the file would take writes again, so no record lands behind a
// torn one or a sequence gap. Reopening recovers exactly the records
// committed before the failure.
func TestWriteFailureLatches(t *testing.T) {
	errDisk := errors.New("disk full")
	for _, tc := range []struct {
		name  string
		short int
		err   error
	}{
		{"refused", 0, errDisk},
		{"short with error", 9, errDisk},
		{"silent short", 30, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, ff, path := openFlaky(t)
			appendAll(t, l, "a", "b")
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			size := fileSize(t, path)
			appendAll(t, l, "c", "d")
			ff.fail, ff.short, ff.err = 1, tc.short, tc.err
			first := l.Commit()
			if first == nil {
				t.Fatal("Commit over a failing write returned nil")
			}
			if tc.err != nil && !errors.Is(first, tc.err) {
				t.Fatalf("Commit err = %v, want it to wrap %v", first, tc.err)
			}
			if tc.err == nil && !errors.Is(first, io.ErrShortWrite) {
				t.Fatalf("Commit err = %v, want io.ErrShortWrite", first)
			}
			writes := ff.writes
			if err := l.Append("e", nil); err != first {
				t.Fatalf("Append after failure err = %v, want the first error %v", err, first)
			}
			if err := l.Commit(); err != first {
				t.Fatalf("Commit after failure err = %v, want the first error %v", err, first)
			}
			if err := l.Close(); err != first {
				t.Fatalf("Close after failure err = %v, want the first error %v", err, first)
			}
			if ff.writes != writes || fileSize(t, path) != size+int64(tc.short) {
				t.Fatalf("latched log wrote again: %d writes (want %d), file %d bytes (want %d)",
					ff.writes, writes, fileSize(t, path), size+int64(tc.short))
			}
			if got := reopenTypes(t, path); got != "a b" {
				t.Fatalf("recovered %q, want the committed \"a b\"", got)
			}
		})
	}
}
