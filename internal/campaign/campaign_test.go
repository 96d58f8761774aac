package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/runstate"
	"repro/internal/telemetry"
)

// tinySet is a small task set: one job, one cell, fast to simulate.
const tinySet = `{
  "policy": "priority",
  "timeModel": "coarse",
  "horizonMs": 5,
  "tasks": [
    {"name": "ctrl",  "type": "periodic", "periodUs": 1000, "wcetUs": 250, "prio": 1},
    {"name": "audio", "type": "periodic", "periodUs": 2000, "wcetUs": 600, "prio": 2}
  ]
}`

// tinySetReordered is byte-different JSON with identical content — the
// canonical form (and so the idempotency key) must match tinySet's.
const tinySetReordered = `{
  "tasks": [
    {"prio": 1, "wcetUs": 250, "periodUs": 1000, "type": "periodic", "name": "ctrl"},
    {"prio": 2, "wcetUs": 600, "periodUs": 2000, "type": "periodic", "name": "audio"}
  ],
  "horizonMs": 5,
  "timeModel": "coarse",
  "policy": "priority"
}`

func openTestServer(t *testing.T, dir string, jobs int) *Server {
	t.Helper()
	s, err := Open(Options{Dir: dir, Jobs: jobs, Key: []byte("test-key")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func waitDone(t *testing.T, s *Server, id string) {
	t.Helper()
	ch, ok := s.Done(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", id)
	}
}

func TestTasksetJobEndToEnd(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 2)
	id, dup, err := s.Submit(KindTaskset, []byte(tinySet))
	if err != nil || dup {
		t.Fatalf("Submit = (%s, %v, %v)", id, dup, err)
	}
	waitDone(t, s, id)

	st, ok := s.Status(id)
	if !ok || st.Status != runstate.StatusDone || st.CellsDone != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Metrics == nil {
		t.Fatal("done taskset job has no merged telemetry")
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(res, []byte("simd-result/1 ")) || !bytes.Contains(res, []byte("task name=ctrl")) {
		t.Fatalf("result:\n%s", res)
	}
	rcpt, err := s.Receipt(id)
	if err != nil {
		t.Fatal(err)
	}
	if !s.VerifyReceipt(rcpt) {
		t.Fatal("receipt does not verify")
	}
	if rcpt.Job != id || rcpt.Cells != 1 || len(rcpt.Requeued) != 0 {
		t.Fatalf("receipt = %+v", rcpt)
	}
	if n := s.Executions(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
}

// TestIdempotentResubmission: resubmitting a completed job — even with
// reordered JSON — returns the original job and runs nothing.
func TestIdempotentResubmission(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 2)
	id, _, err := s.Submit(KindTaskset, []byte(tinySet))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	before := s.Executions()
	missesBefore := s.CacheStats().Misses

	id2, dup, err := s.Submit(KindTaskset, []byte(tinySetReordered))
	if err != nil {
		t.Fatal(err)
	}
	if !dup || id2 != id {
		t.Fatalf("resubmission = (%s, dup=%v), want (%s, dup=true)", id2, dup, id)
	}
	if n := s.Executions(); n != before {
		t.Fatalf("resubmission executed %d cells", n-before)
	}
	if m := s.CacheStats().Misses; m != missesBefore {
		t.Fatalf("resubmission took %d cache misses", m-missesBefore)
	}
	r1, _ := s.Receipt(id)
	r2, err := s.Receipt(id2)
	if err != nil || r2.Sig != r1.Sig {
		t.Fatalf("duplicate's receipt differs: %v / %+v vs %+v", err, r2, r1)
	}
}

// TestConcurrentDuplicateSubmissions: racing identical submissions elect
// exactly one job and execute its cell exactly once.
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 4)
	const n = 16
	ids := make([]string, n)
	dups := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			ids[i], dups[i], err = s.Submit(KindTaskset, []byte(tinySet))
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	winners := 0
	for i := 0; i < n; i++ {
		if !dups[i] {
			winners++
		}
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s", i, ids[i], ids[0])
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners, want exactly 1", winners)
	}
	waitDone(t, s, ids[0])
	if n := s.Executions(); n != 1 {
		t.Fatalf("executions = %d, want exactly 1", n)
	}
	if got := len(s.JobIDs()); got != 1 {
		t.Fatalf("%d jobs accepted, want 1", got)
	}
}

// TestDSESweepSharesCellsWithTaskset: a DSE sweep over a configuration
// already simulated as a plain taskset job serves that cell from the
// shared cache instead of re-running it.
func TestDSESweepSharesCellsWithTaskset(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 2)
	id, _, err := s.Submit(KindTaskset, []byte(tinySet))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	if n := s.Executions(); n != 1 {
		t.Fatalf("executions after taskset job = %d", n)
	}

	sweep := fmt.Sprintf(`{"base": %s, "axes": [{"name": "policy", "values": ["priority", "edf", "fcfs"]}]}`, tinySet)
	did, _, err := s.Submit(KindDSE, []byte(sweep))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, did)
	st, _ := s.Status(did)
	if st.Status != runstate.StatusDone || st.Cells != 3 {
		t.Fatalf("sweep status = %+v", st)
	}
	// The "priority" configuration is the taskset job's cell: cached.
	if n := s.Executions(); n != 3 {
		t.Fatalf("executions after sweep = %d, want 3 (one cell shared)", n)
	}
	res, err := s.Result(did)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"policy=priority", "policy=edf", "policy=fcfs"} {
		if !strings.Contains(string(res), want) {
			t.Errorf("sweep result missing %s", want)
		}
	}
}

// TestDSEDistinctKeysRunOnce: a sweep whose cells share one key — an
// axis value inert under the other axes, or two names for one policy —
// executes that key once however many workers run it, and its result
// and receipt are the one-worker run's.
func TestDSEDistinctKeysRunOnce(t *testing.T) {
	for name, axes := range map[string]string{
		"inert quantum":  `[{"name": "policy", "values": ["edf"]}, {"name": "quantumUs", "values": ["250", "500", "750", "1000"]}]`,
		"aliased policy": `[{"name": "policy", "values": ["prio", "priority"]}]`,
	} {
		t.Run(name, func(t *testing.T) {
			sweep := fmt.Sprintf(`{"base": %s, "axes": %s}`, tinySet, axes)
			var want []byte
			for _, jobs := range []int{1, 2, 8} {
				s := openTestServer(t, t.TempDir(), jobs)
				id, _, err := s.Submit(KindDSE, []byte(sweep))
				if err != nil {
					t.Fatal(err)
				}
				waitDone(t, s, id)
				if n := s.Executions(); n != 1 {
					t.Errorf("jobs=%d: %d executions, want 1", jobs, n)
				}
				res, err := s.Result(id)
				if err != nil {
					t.Fatal(err)
				}
				rcpt, err := s.Receipt(id)
				if err != nil {
					t.Fatal(err)
				}
				got := append(append(res, rcpt.Payload()...), rcpt.Sig...)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("jobs=%d: result and receipt differ from the one-worker run's:\n%s\nvs\n%s", jobs, got, want)
				}
			}
		})
	}
}

// TestCancelQueuedJob: a job cancelled while queued behind a running one
// never executes, and its idempotency key is released for resubmission.
func TestCancelQueuedJob(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 1)
	// A fault battery keeps the dispatcher busy long enough to cancel the
	// job queued behind it deterministically.
	busy, _, err := s.Submit(KindFault, []byte(`{"seeds": [1, 2]}`))
	if err != nil {
		t.Fatal(err)
	}
	victim, _, err := s.Submit(KindTaskset, []byte(tinySet))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, victim)
	st, _ := s.Status(victim)
	if st.Status != runstate.StatusCancelled {
		t.Fatalf("victim status = %s", st.Status)
	}
	if err := s.Cancel(victim); err == nil {
		t.Fatal("cancelling a cancelled job succeeded")
	}
	// The key is free again: the same payload is a fresh job now.
	again, dup, err := s.Submit(KindTaskset, []byte(tinySet))
	if err != nil || dup || again == victim {
		t.Fatalf("resubmission after cancel = (%s, %v, %v)", again, dup, err)
	}
	waitDone(t, s, again)
	waitDone(t, s, busy)
}

// TestWorkerLossRequeuedOnceAndFlagged: a cell whose worker panics is
// re-dispatched exactly once, the recovery is flagged in the receipt,
// the result is never silently dropped, and the journal stays valid.
func TestWorkerLossRequeuedOnceAndFlagged(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 2)
	var calls atomic.Int32
	j := &Job{
		ID: "job-000001", Kind: "taskset", Key: "test:panic-once",
		Payload: []byte(`{}`),
		cells: []cellSpec{{
			key:   "cell:test:panic-once",
			label: "flaky",
			run: func() ([]byte, *telemetry.Report, error) {
				if calls.Add(1) == 1 {
					panic("worker lost")
				}
				return []byte("recovered result\n"), nil, nil
			},
		}},
		cellDone: make([]bool, 1),
		cellHash: make([]string, 1),
		status:   runstate.StatusQueued,
		done:     make(chan struct{}),
	}
	if err := s.log.Append(runstate.EvJobAccepted, runstate.JobAccepted{
		ID: j.ID, Kind: j.Kind, Key: j.Key, Cells: []string{j.cells[0].key}, Payload: j.Payload,
	}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.process(j)

	if got := calls.Load(); got != 2 {
		t.Fatalf("cell executed %d times, want exactly 2 (original + one requeue)", got)
	}
	st, _ := s.Status(j.ID)
	if st.Status != runstate.StatusDone {
		t.Fatalf("job status = %s, error = %s", st.Status, st.Error)
	}
	rcpt, err := s.Receipt(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcpt.Requeued) != 1 || rcpt.Requeued[0] != "flaky" {
		t.Fatalf("receipt.Requeued = %v, want [flaky]", rcpt.Requeued)
	}
	res, err := s.Result(j.ID)
	if err != nil || !bytes.Contains(res, []byte("recovered result")) {
		t.Fatalf("result lost: %v\n%s", err, res)
	}
	// The journal recorded both leases and stayed structurally valid.
	recs, err := s.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	rst, err := runstate.Rebuild(recs)
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := rst.Job(j.ID)
	if rj.Cells[0].Starts != 2 || !rj.Cells[0].Done {
		t.Fatalf("journaled cell = %+v", rj.Cells[0])
	}
}

// TestWorkerLossExhaustedFailsLoudly: a cell that panics on every
// attempt fails the job with the panic value in the status — never a
// silent drop.
func TestWorkerLossExhaustedFailsLoudly(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 2)
	var calls atomic.Int32
	j := &Job{
		ID: "job-000001", Kind: "taskset", Key: "test:panic-always",
		Payload: []byte(`{}`),
		cells: []cellSpec{{
			key:   "cell:test:panic-always",
			label: "doomed",
			run: func() ([]byte, *telemetry.Report, error) {
				calls.Add(1)
				panic("hardware on fire")
			},
		}},
		cellDone: make([]bool, 1),
		cellHash: make([]string, 1),
		status:   runstate.StatusQueued,
		done:     make(chan struct{}),
	}
	if err := s.log.Append(runstate.EvJobAccepted, runstate.JobAccepted{
		ID: j.ID, Kind: j.Kind, Key: j.Key, Cells: []string{j.cells[0].key}, Payload: j.Payload,
	}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.process(j)

	if got := calls.Load(); got != 2 {
		t.Fatalf("cell executed %d times, want 2 (original + one requeue, then give up)", got)
	}
	st, _ := s.Status(j.ID)
	if st.Status != runstate.StatusFailed || !strings.Contains(st.Error, "panic: hardware on fire") {
		t.Fatalf("status = %+v", st)
	}
	if strings.Contains(st.Error, "goroutine") {
		t.Fatalf("failure message leaks a stack trace: %q", st.Error)
	}
}

// TestCachePersistFailureFailsCell: a cell whose bytes cannot be written
// to the cache must fail its job before cell.done is journaled. A done
// record for bytes that never reached disk would fail the job in the
// next server life instead. The cache directory is replaced by a regular
// file after Open, so the write fails with ENOTDIR even as root.
func TestCachePersistFailureFailsCell(t *testing.T) {
	dir := t.TempDir()
	s := openTestServer(t, dir, 1)
	cacheDir := filepath.Join(dir, "cache")
	if err := os.RemoveAll(cacheDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cacheDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	id, _, err := s.Submit(KindTaskset, []byte(tinySet))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	st, _ := s.Status(id)
	if st.Status != runstate.StatusFailed || !strings.Contains(st.Error, "cache persist") {
		t.Fatalf("status = %+v, want failed with the cache persist error", st)
	}
	data, err := os.ReadFile(filepath.Join(dir, "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := eventlog.Decode(data)
	for _, r := range recs {
		if r.Type == runstate.EvCellDone {
			t.Fatalf("cell.done journaled for a cell whose bytes were never persisted: %s", r.Data)
		}
	}
}

// TestSubmitRejectsMalformedPayloads: invalid submissions are refused
// with the underlying validator's message; nothing is journaled or run.
func TestSubmitRejectsMalformedPayloads(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 1)
	cases := []struct {
		name, kind, payload, wantErr string
	}{
		{"bad kind", "warp", `{}`, "unknown job kind"},
		{"taskset not json", KindTaskset, `{`, "unexpected end"},
		{"taskset no tasks", KindTaskset, `{"tasks": []}`, "no tasks"},
		{"taskset bad policy", KindTaskset, `{"policy": "psychic", "horizonMs": 1,
			"tasks": [{"name":"a","periodUs":100,"wcetUs":10}]}`, "psychic"},
		{"sdl empty", KindSDL, `{}`, "source"},
		{"sdl bad model", KindSDL, `{"source": "behavior B {"}`, "sdl"},
		{"fault no seeds", KindFault, `{}`, "seed"},
		{"dse no base", KindDSE, `{"axes":[{"name":"policy","values":["rr"]}]}`, `campaign: dse job needs a "base" task set`},
		{"dse null base", KindDSE, `{"base": null, "axes":[{"name":"policy","values":["rr"]}]}`, `campaign: dse job needs a "base" task set`},
		{"dse base field mistyped", KindDSE, `{"base": {"policy": 7, "tasks": [{"name":"a","periodUs":100,"wcetUs":10}]}, "axes":[{"name":"policy","values":["rr"]}]}`,
			"campaign: dse job: json: cannot unmarshal number into Go struct field Set.base.policy of type string"},
		{"dse invalid base", KindDSE, `{"base": {"tasks": []}, "axes":[{"name":"policy","values":["rr"]}]}`, "taskset: no tasks"},
		{"dse no axes", KindDSE, fmt.Sprintf(`{"base": %s}`, tinySet), "axis"},
		{"dse unknown axis", KindDSE, fmt.Sprintf(`{"base": %s, "axes":[{"name":"magic","values":["on"]}]}`, tinySet), "magic"},
		{"dse invalid variant", KindDSE, fmt.Sprintf(`{"base": %s, "axes":[{"name":"policy","values":["psychic"]}]}`, tinySet), "psychic"},
		// A repeated axis or value names one configuration twice: dse.Grid
		// lets the later axis win, so two cells would share key and label.
		{"dse axis twice", KindDSE, fmt.Sprintf(`{"base": %s, "axes":[{"name":"policy","values":["rr","edf"]},{"name":"policy","values":["rm"]}]}`, tinySet),
			`campaign: dse axis "policy" given twice`},
		{"dse axis twice apart", KindDSE, fmt.Sprintf(`{"base": %s, "axes":[{"name":"engine","values":["rtc"]},{"name":"horizonMs","values":["5"]},{"name":"engine","values":["rtc"]}]}`, tinySet),
			`campaign: dse axis "engine" given twice`},
		{"dse value twice", KindDSE, fmt.Sprintf(`{"base": %s, "axes":[{"name":"policy","values":["rr","rr"]}]}`, tinySet),
			`campaign: dse axis policy repeats value "rr"`},
		{"dse number twice", KindDSE, fmt.Sprintf(`{"base": %s, "axes":[{"name":"policy","values":["rm"]},{"name":"quantumUs","values":["500","250","500"]}]}`, tinySet),
			`campaign: dse axis quantumUs repeats value "500"`},
		{"dse grid too large", KindDSE, fmt.Sprintf(`{"base": %s, "axes":[{"name":"quantumUs","values":[%s]},{"name":"horizonMs","values":[%s]}]}`,
			tinySet, numberList(65), numberList(64)), "campaign: dse grid has more than 4096 configurations"},
	}
	for _, tc := range cases {
		_, _, err := s.Submit(tc.kind, []byte(tc.payload))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	if n := len(s.JobIDs()); n != 0 {
		t.Fatalf("%d jobs accepted from malformed payloads", n)
	}
	recs, err := s.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("%d events journaled from malformed payloads", len(recs))
	}
}

// numberList renders n distinct axis values "1", "2", … as JSON strings.
func numberList(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = strconv.Quote(strconv.Itoa(i + 1))
	}
	return strings.Join(vals, ",")
}

// TestDSEAxisNumbersMustBePlainFinite: a quantumUs or horizonMs axis
// value is a plain finite number. A unit suffix or surrounding space
// once ran the leading number under the raw label, and NaN or an
// infinity once ran the default horizon; each is now refused with the
// axis's message and nothing is journaled.
func TestDSEAxisNumbersMustBePlainFinite(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 1)
	submit := func(axis, val string) error {
		payload := fmt.Sprintf(`{"base": %s, "axes": [{"name": %q, "values": [%q]}]}`, tinySet, axis, val)
		_, _, err := s.Submit(KindDSE, []byte(payload))
		return err
	}
	for _, axis := range []string{"quantumUs", "horizonMs"} {
		for _, val := range []string{"20ms", " 20", "20 ", "NaN", "nan", "+Inf", "-Inf", "inf", "1e400", "", "0x"} {
			want := fmt.Sprintf("campaign: dse axis %s value %q is not a number", axis, val)
			if err := submit(axis, val); err == nil || err.Error() != want {
				t.Errorf("%s=%q: err = %v, want %q", axis, val, err, want)
			}
		}
	}
	if n := len(s.JobIDs()); n != 0 {
		t.Fatalf("%d jobs accepted from malformed axis values", n)
	}
	recs, err := s.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("%d events journaled from malformed axis values", len(recs))
	}
	for _, val := range []string{"20", "2.5e1", "0x1p4"} {
		if err := submit("horizonMs", val); err != nil {
			t.Errorf("horizonMs=%q refused: %v", val, err)
		}
	}
}

// TestSDLJobEndToEnd: the SDL front end runs as a campaign job.
func TestSDLJobEndToEnd(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 2)
	payload := `{"source": "behavior A { delay 100ns }\nbehavior B { delay 50ns }\ncompose main seq { A B }\ntop main\ntask main priority 0\n"}`
	id, _, err := s.Submit(KindSDL, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	st, _ := s.Status(id)
	if st.Status != runstate.StatusDone {
		t.Fatalf("status = %+v", st)
	}
	res, err := s.Result(id)
	if err != nil || !bytes.Contains(res, []byte("sdl arch policy=priority")) {
		t.Fatalf("result: %v\n%s", err, res)
	}
}

// TestFaultJobEndToEnd: a fault battery fans seeds × plans into cells
// and diagnoses land in the result, not in job errors.
func TestFaultJobEndToEnd(t *testing.T) {
	s := openTestServer(t, t.TempDir(), 4)
	id, _, err := s.Submit(KindFault, []byte(`{"seeds": [7], "plans": [{"name": "drop-irq", "drop_irq": {"prob": 1}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	st, _ := s.Status(id)
	if st.Status != runstate.StatusDone || st.Cells != 1 {
		t.Fatalf("status = %+v", st)
	}
}
