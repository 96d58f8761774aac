package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign/runstate"
)

// testdata/prealias is a campaign directory written by the server before
// policy aliases were canonicalized and before dse axis numbers were
// parsed strictly (commit 68b936f), with Jobs 1 and the receipt key
// "stale-fixture-key":
//
//	job-000001 taskset  policy "prio"                     done
//	job-000002 dse      horizonMs ["2ms"], 2 cells        done
//	job-000003 taskset  policy "fifo"                     queued
//	job-000004 dse      horizonMs ["NaN"], cell 0 leased  running
//
// Jobs 1 and 3 now derive other keys; jobs 2 and 4 no longer build.
// The payloads of jobs 1 and 3 are these.
const (
	prealiasPrio = `{"policy": "prio", "horizonMs": 2, "tasks": [
  {"name": "ctrl", "periodUs": 500, "wcetUs": 100, "prio": 1},
  {"name": "io", "periodUs": 1000, "wcetUs": 200, "prio": 2}
]}`
	prealiasFifo = `{"policy": "fifo", "horizonMs": 2, "tasks": [
  {"name": "ctrl", "periodUs": 500, "wcetUs": 100, "prio": 1},
  {"name": "io", "periodUs": 1000, "wcetUs": 200, "prio": 2}
]}`
)

// openPrealias copies the fixture into a fresh directory and opens it.
func openPrealias(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", "prealias")
	if err := os.Mkdir(filepath.Join(dir, "cache"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(src, "cache", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(files, filepath.Join(src, "events.log")) {
		rel, _ := filepath.Rel(src, f)
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: dir, Jobs: 1, Key: []byte("stale-fixture-key")})
	if err != nil {
		t.Fatalf("directory written before alias canonicalization refused: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

// TestResumeStaleJobs: a directory whose journaled payloads no longer
// build, or build to other keys, still opens. Its done jobs keep their
// status and receipts, and a done job's result is reassembled from the
// journaled cell keys when the payload still yields the cell labels. Its
// unfinished jobs fail with the reason, journaled once, and release
// their keys, so resubmitting the payload runs it under the current
// keys and reproduces the old cell bytes.
func TestResumeStaleJobs(t *testing.T) {
	s, dir := openPrealias(t)

	want := map[string]struct{ status, err string }{
		"job-000001": {runstate.StatusDone, ""},
		"job-000002": {runstate.StatusDone, `payload no longer builds: campaign: dse axis horizonMs value "2ms" is not a number`},
		"job-000003": {runstate.StatusFailed, "campaign: job job-000003 key drift"},
		"job-000004": {runstate.StatusFailed, `campaign: job job-000004 payload no longer builds: campaign: dse axis horizonMs value "NaN" is not a number`},
	}
	for id, w := range want {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("%s missing after resume", id)
		}
		if st.Status != w.status || !strings.HasPrefix(st.Error, w.err) || (w.err == "") != (st.Error == "") {
			t.Errorf("%s: status %s error %q, want %s error starting %q", id, st.Status, st.Error, w.status, w.err)
		}
	}
	for _, id := range []string{"job-000001", "job-000002"} {
		r, err := s.Receipt(id)
		if err != nil || !s.VerifyReceipt(r) {
			t.Errorf("%s: receipt %+v err %v, want a verified receipt", id, r, err)
		}
	}
	old, err := s.Result("job-000001")
	if err != nil {
		t.Fatalf("done job with drifted keys: %v", err)
	}
	if _, err := s.Result("job-000002"); err == nil || !strings.Contains(err.Error(), "cannot be reassembled") {
		t.Errorf("done job whose payload no longer builds: Result err = %v", err)
	}

	// The stale jobs' failures are journaled, so the run state agrees.
	recs, err := s.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	st, err := runstate.Rebuild(recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-000003", "job-000004"} {
		if j, _ := st.Job(id); j.Status != runstate.StatusFailed {
			t.Errorf("%s journaled as %s, want failed", id, j.Status)
		}
	}

	// Released keys: each resubmission runs as a new job, and the
	// aliased taskset reproduces the cell bytes it had.
	for _, payload := range []string{prealiasPrio, prealiasFifo} {
		id, dup, err := s.Submit(KindTaskset, []byte(payload))
		if err != nil || dup {
			t.Fatalf("resubmit: id %s dup %v err %v", id, dup, err)
		}
		waitDone(t, s, id)
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if payload == prealiasPrio {
			_, oldCells, _ := bytes.Cut(old, []byte("\n"))
			_, newCells, _ := bytes.Cut(res, []byte("\n"))
			if !bytes.Equal(oldCells, newCells) {
				t.Errorf("resubmitted prio set: cells\n%s\nwant the journaled\n%s", newCells, oldCells)
			}
		}
	}
	before, _ := s.LogRecords()
	s.Close()

	// A second open finds nothing stale left to journal.
	s2, err := Open(Options{Dir: dir, Jobs: 1, Key: []byte("stale-fixture-key")})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if again, _ := s2.LogRecords(); len(again) != len(before) {
		t.Errorf("reopen journaled %d more records", len(again)-len(before))
	}
	if _, err := s2.Result("job-000001"); err != nil {
		t.Errorf("reopened: %v", err)
	}
}
