package campaign

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/receipt"
	"repro/internal/campaign/runstate"
)

// The differential crash-resume harness.
//
// A mixed campaign — one job of every kind — is first run uninterrupted
// (the golden run), then run again while being killed at every event-log
// position and restarted until it completes. At any kill position and
// any worker count the finished campaign must be indistinguishable from
// the golden run: byte-identical results, byte-identical signed
// receipts, byte-identical canonical run state — and no completed cell
// may ever execute twice (verified by cache-hit/execution accounting).

// submission is one workload entry.
type submission struct {
	kind    string
	payload string
}

// harnessWorkload is the mixed campaign: every job kind, multi-cell
// fan-outs, and a DSE sweep that shares one cell with the plain taskset
// job (the priority/coarse configuration), exercising cross-job cache
// sharing under crashes.
func harnessWorkload() []submission {
	sdlSrc := "behavior A { delay 100ns }\\nbehavior B { delay 60ns }\\ncompose main seq { A B }\\ntop main\\ntask main priority 0\\n"
	return []submission{
		{KindTaskset, tinySet},
		{KindSDL, fmt.Sprintf(`{"source": "%s"}`, sdlSrc)},
		{KindFault, `{"seeds": [3, 5], "plans": [
			{"name": "baseline", "expect_clean": true},
			{"name": "drop-irq", "drop_irq": {"prob": 1}}
		]}`},
		{KindDSE, fmt.Sprintf(`{"base": %s, "axes": [
			{"name": "policy", "values": ["priority", "edf"]},
			{"name": "timeModel", "values": ["coarse", "segmented"]}
		]}`, tinySet)},
	}
}

// uniqueCellCount derives the number of distinct cells in the workload —
// the exact number of simulations any run of it, however interrupted,
// is allowed to execute.
func uniqueCellCount(t *testing.T, work []submission) int {
	t.Helper()
	keys := map[string]bool{}
	for _, w := range work {
		_, cells, err := buildJob(w.kind, []byte(w.payload))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			keys[c.key] = true
		}
	}
	return len(keys)
}

// artifacts is everything a finished campaign computed, in comparable
// form.
type artifacts struct {
	ids        []string
	results    [][]byte
	receipts   []receipt.Receipt
	canonical  []byte
	events     int
	executions int64 // simulations actually run, summed over all lives
}

// crashSpec arms one life's kill: die on the nth log append, writing
// torn bytes of the record first.
type crashSpec struct {
	after int
	torn  int
}

const harnessKey = "differential-harness-key"

// runCampaign drives the harness workload over one campaign directory
// (see runWork).
func runCampaign(t *testing.T, dir string, jobs int, crashes []crashSpec) artifacts {
	t.Helper()
	return runWork(t, dir, jobs, harnessWorkload(), crashes)
}

// runWork drives a workload over one campaign directory through as many
// server lives as it takes: each life opens the directory (resuming
// journaled state), idempotently resubmits every payload, and either
// completes the campaign or dies at the armed crash position and is
// restarted. Every life's recovered log must rebuild cleanly.
func runWork(t *testing.T, dir string, jobs int, work []submission, crashes []crashSpec) artifacts {
	t.Helper()
	ids := make([]string, len(work))
	var execs int64
	maxLives := len(crashes) + 60
	for life := 0; life < maxLives; life++ {
		s, err := Open(Options{Dir: dir, Jobs: jobs, Key: []byte(harnessKey)})
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		if life < len(crashes) {
			s.SetCrashAfter(crashes[life].after, crashes[life].torn)
		}
		submittedAll := true
		for i, w := range work {
			id, _, err := s.Submit(w.kind, []byte(w.payload))
			if err != nil {
				// The kill landed on this accept; resubmit next life.
				submittedAll = false
				break
			}
			if ids[i] != "" && ids[i] != id {
				t.Fatalf("life %d: payload %d drifted from job %s to %s", life, i, ids[i], id)
			}
			ids[i] = id
		}
		done := submittedAll && waitAllOrHalt(t, s, ids)
		if done && !s.Halted() {
			execs += s.Executions()
			art := collectArtifacts(t, s, ids)
			art.executions = execs
			s.Close()
			return art
		}
		s.Close()
		execs += s.Executions()
		// Whatever survived the kill must still be a valid journal.
		recs, err := s.LogRecords()
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		if _, err := runstate.Rebuild(recs); err != nil {
			t.Fatalf("life %d: recovered log does not rebuild: %v", life, err)
		}
	}
	t.Fatalf("campaign did not complete in %d lives", maxLives)
	return artifacts{}
}

// waitAllOrHalt waits until every job is terminal (true) or the server
// latched dead after the armed kill (false).
func waitAllOrHalt(t *testing.T, s *Server, ids []string) bool {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		allDone := true
		for _, id := range ids {
			st, ok := s.Status(id)
			if !ok {
				allDone = false
				break
			}
			switch st.Status {
			case runstate.StatusDone, runstate.StatusFailed, runstate.StatusCancelled:
			default:
				allDone = false
			}
			if !allDone {
				break
			}
		}
		if allDone {
			return true
		}
		if s.Halted() {
			return false
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign neither completed nor crashed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func collectArtifacts(t *testing.T, s *Server, ids []string) artifacts {
	t.Helper()
	art := artifacts{ids: append([]string(nil), ids...)}
	for _, id := range ids {
		st, ok := s.Status(id)
		if !ok || st.Status != runstate.StatusDone {
			t.Fatalf("job %s finished as %+v", id, st)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		rcpt, err := s.Receipt(id)
		if err != nil {
			t.Fatal(err)
		}
		if !s.VerifyReceipt(rcpt) {
			t.Fatalf("job %s receipt does not verify", id)
		}
		art.results = append(art.results, res)
		art.receipts = append(art.receipts, rcpt)
	}
	recs, err := s.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	st, err := runstate.Rebuild(recs)
	if err != nil {
		t.Fatal(err)
	}
	art.canonical = st.Canonical()
	art.events = len(recs)
	return art
}

// diffArtifacts asserts two finished campaigns are indistinguishable.
func diffArtifacts(t *testing.T, label string, golden, got artifacts) {
	t.Helper()
	for i := range golden.ids {
		if golden.ids[i] != got.ids[i] {
			t.Errorf("%s: job ID %d: %s vs %s", label, i, golden.ids[i], got.ids[i])
		}
		if !bytes.Equal(golden.results[i], got.results[i]) {
			t.Errorf("%s: job %s result bytes differ:\n--- golden\n%s\n--- got\n%s",
				label, golden.ids[i], golden.results[i], got.results[i])
		}
		if !bytes.Equal(golden.receipts[i].Payload(), got.receipts[i].Payload()) ||
			golden.receipts[i].Sig != got.receipts[i].Sig {
			t.Errorf("%s: job %s receipts differ:\n%+v\nvs\n%+v",
				label, golden.ids[i], golden.receipts[i], got.receipts[i])
		}
	}
	if !bytes.Equal(golden.canonical, got.canonical) {
		t.Errorf("%s: canonical run state differs:\n--- golden\n%s\n--- got\n%s",
			label, golden.canonical, got.canonical)
	}
}

// TestCrashResumeDifferentialMatrix is the headline gate: the campaign
// is killed once at every event-log position (with a varying torn-write
// tail) and restarted, at worker counts 1 and 8. Every resumed campaign
// must be byte-identical to the golden run and execute zero completed
// cells a second time.
func TestCrashResumeDifferentialMatrix(t *testing.T) {
	work := harnessWorkload()
	wantExecs := int64(uniqueCellCount(t, work))
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			golden := runCampaign(t, t.TempDir(), jobs, nil)
			if golden.executions != wantExecs {
				t.Fatalf("golden run executed %d cells, want %d", golden.executions, wantExecs)
			}
			step := 1
			if testing.Short() {
				step = 5
			}
			for k := 1; k <= golden.events; k += step {
				k := k
				t.Run(fmt.Sprintf("kill@%d", k), func(t *testing.T) {
					got := runCampaign(t, t.TempDir(), jobs,
						[]crashSpec{{after: k, torn: (k % 3) * 7}})
					diffArtifacts(t, fmt.Sprintf("kill@%d", k), golden, got)
					if got.executions != wantExecs {
						t.Errorf("kill@%d: %d cells executed across lives, want %d (zero re-execution)",
							k, got.executions, wantExecs)
					}
				})
			}
		})
	}
}

// TestCrashResumeAtAnyJobsCountAgrees: the golden artifacts themselves
// are independent of worker fan-out.
func TestCrashResumeAtAnyJobsCountAgrees(t *testing.T) {
	g1 := runCampaign(t, t.TempDir(), 1, nil)
	g8 := runCampaign(t, t.TempDir(), 8, nil)
	diffArtifacts(t, "jobs=1 vs jobs=8", g1, g8)
	if g1.events != g8.events {
		t.Errorf("event counts differ: %d vs %d", g1.events, g8.events)
	}
}

// TestCrashResumeRepeatedKills: a hostile environment that kills the
// server every few log appends, life after life, still converges to the
// golden artifacts with zero re-execution.
func TestCrashResumeRepeatedKills(t *testing.T) {
	golden := runCampaign(t, t.TempDir(), 8, nil)
	crashes := make([]crashSpec, 40)
	for i := range crashes {
		crashes[i] = crashSpec{after: 3 + i%4, torn: (i * 5) % 23}
	}
	got := runCampaign(t, t.TempDir(), 8, crashes)
	diffArtifacts(t, "repeated kills", golden, got)
	if want := int64(uniqueCellCount(t, harnessWorkload())); got.executions != want {
		t.Errorf("%d cells executed across lives, want %d", got.executions, want)
	}
}

// warmSweep fans tinySet out to 12 cells; axes lists its axes in the
// order given.
func warmSweep(axes ...string) submission {
	all := map[string]string{
		"policy":    `{"name": "policy", "values": ["priority", "edf", "rm"]}`,
		"timeModel": `{"name": "timeModel", "values": ["coarse", "segmented"]}`,
		"engine":    `{"name": "engine", "values": ["goroutine", "rtc"]}`,
	}
	var list []string
	for _, a := range axes {
		list = append(list, all[a])
	}
	return submission{KindDSE, fmt.Sprintf(`{"base": %s, "axes": [%s]}`, tinySet, strings.Join(list, ", "))}
}

// copyTree copies the regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashResumeWarmMatrix kills a warm dse job — one whose every cell
// the directory's cache already holds, as in a sweep re-run with its
// axes reordered — once at every event-log position, at worker counts 1
// and 8. A warm job commits only job.accepted and its terminal record,
// so a kill in the cell phase loses every cell record: the log on disk
// must end at job.accepted. The resumed job serves the lost cells from
// the cache again, executes nothing, and finishes byte-identical to an
// uninterrupted warm run.
func TestCrashResumeWarmMatrix(t *testing.T) {
	primed := t.TempDir()
	runWork(t, primed, 1, []submission{warmSweep("policy", "timeModel", "engine")}, nil)
	data, err := os.ReadFile(filepath.Join(primed, "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	primedRecs, _ := eventlog.Decode(data)
	work := []submission{warmSweep("engine", "timeModel", "policy")}
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, primed, dir)
			golden := runWork(t, dir, jobs, work, nil)
			if golden.executions != 0 {
				t.Fatalf("warm run executed %d cells, want 0", golden.executions)
			}
			for k := 1; k <= golden.events-len(primedRecs); k++ {
				t.Run(fmt.Sprintf("kill@%d", k), func(t *testing.T) {
					dir := t.TempDir()
					copyTree(t, primed, dir)
					s, err := Open(Options{Dir: dir, Jobs: jobs, Key: []byte(harnessKey)})
					if err != nil {
						t.Fatal(err)
					}
					s.SetCrashAfter(k, (k%3)*7)
					id, _, err := s.Submit(work[0].kind, []byte(work[0].payload))
					if err == nil && waitAllOrHalt(t, s, []string{id}) {
						t.Fatalf("kill@%d: the job finished", k)
					}
					s.Close()
					recs, err := s.LogRecords()
					if err != nil {
						t.Fatal(err)
					}
					// A kill at job.accepted leaves the primed log, which ends
					// at the primed job's job.done; any later kill leaves it
					// plus the committed job.accepted.
					want, last := len(primedRecs), runstate.EvJobDone
					if k > 1 {
						want, last = want+1, runstate.EvJobAccepted
					}
					if len(recs) != want || recs[want-1].Type != last {
						t.Fatalf("kill@%d: log holds %d records ending at %s, want %d ending at %s",
							k, len(recs), recs[len(recs)-1].Type, want, last)
					}
					got := runWork(t, dir, jobs, work, nil)
					got.executions += s.Executions()
					diffArtifacts(t, fmt.Sprintf("kill@%d", k), golden, got)
					if got.executions != 0 {
						t.Errorf("kill@%d: %d cells executed across lives, want 0", k, got.executions)
					}
				})
			}
		})
	}
}

// TestResumeServesDoneJobsFromCache: reopening a finished campaign
// executes nothing — results are reassembled from the cache and verified
// against the journaled hashes.
func TestResumeServesDoneJobsFromCache(t *testing.T) {
	dir := t.TempDir()
	golden := runCampaign(t, dir, 4, nil)

	s, err := Open(Options{Dir: dir, Jobs: 4, Key: []byte(harnessKey)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hitsBefore := s.CacheStats().Hits
	got := collectArtifacts(t, s, golden.ids)
	got.executions = golden.executions
	diffArtifacts(t, "reopen", golden, got)
	if n := s.Executions(); n != 0 {
		t.Fatalf("reopening a finished campaign executed %d cells", n)
	}
	if hits := s.CacheStats().Hits - hitsBefore; hits == 0 {
		t.Fatal("reassembled results took no cache hits")
	}
	// Idempotent resubmission after restart: same IDs, still nothing runs.
	for i, w := range harnessWorkload() {
		id, dup, err := s.Submit(w.kind, []byte(w.payload))
		if err != nil || !dup || id != golden.ids[i] {
			t.Fatalf("resubmission %d = (%s, %v, %v), want (%s, true)", i, id, dup, err, golden.ids[i])
		}
	}
	if n := s.Executions(); n != 0 {
		t.Fatalf("resubmission executed %d cells", n)
	}
}
