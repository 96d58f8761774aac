// Package campaign is the crash-resumable simulation-as-a-service core
// behind cmd/simd. A Server accepts jobs (task-set runs, SDL models,
// fault-injection batteries, DSE sweeps), fans their cells across a
// runner pool, and journals every state transition to an append-only
// checksummed event log. Killing the process at any point and reopening
// the same directory resumes the campaign: completed cells are served
// from the content-addressed result cache (never re-executed), lost
// leases are requeued, and the finished campaign's results, receipts
// and canonical run state are byte-identical to an uninterrupted run.
//
// The journal is group-committed (see eventlog): records are buffered
// and written only where durability is owed. Submit commits
// job.accepted before it returns the ID; Open commits the job.failed of
// every stale job before it returns; a cell that misses the cache
// commits cell.started before it executes and cell.done after its bytes
// are in the cache; and a job's terminal record is committed before
// Done's channel closes. A cache-served cell's two records ride along
// with the next commit, so a warm job writes its journal twice. A kill
// loses at most the records appended since the last commit: cells whose
// bytes the cache already holds, which the resumed server serves from
// the cache without executing them again. Nothing is fsynced.
package campaign

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/idempotency"
	"repro/internal/campaign/receipt"
	"repro/internal/campaign/runstate"
	"repro/internal/dse"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Dir is the campaign directory: event log, result cache, receipt
	// key. Required.
	Dir string
	// Jobs is the worker fan-out per campaign job (runner pool width).
	// 0 means runtime.NumCPU (the runner default).
	Jobs int
	// Key is the HMAC key receipts are signed with. Empty: a key is
	// generated on first open and persisted in Dir, so receipts stay
	// verifiable across restarts.
	Key []byte
	// QueueDepth bounds the pending-job queue. 0 means 1024.
	QueueDepth int
}

// Job is the server's live view of one campaign job.
type Job struct {
	ID      string
	Kind    string
	Key     string
	Payload []byte

	cells    []cellSpec
	cellDone []bool   // completed in a previous life (from the recovered log)
	cellHash []string // result hashes for recovered cells

	mu       sync.Mutex
	status   string
	err      string // failure reason; on a done job, why its result cannot be reassembled
	result   []byte
	resHash  string
	receipt  *receipt.Receipt
	reports  []*telemetry.Report
	requeued []string

	cancelled atomic.Bool
	done      chan struct{} // closed on any terminal status
}

// errCancelled is the internal sentinel a cancelled job's cells return.
var errCancelled = errors.New("campaign: job cancelled")

// Server is a crash-resumable campaign server over one directory.
type Server struct {
	opts  Options
	log   *eventlog.Log
	cache *dse.Cache
	reg   *idempotency.Registry
	key   []byte

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // job IDs in acceptance order
	nextID int

	queue        chan *Job
	stop         chan struct{}
	dispatchDone chan struct{}
	dead         atomic.Bool // latched on eventlog.ErrCrash (crash drill)

	execs atomic.Int64 // cells actually executed (cache misses) this life
}

// Open opens (or creates) the campaign directory, replays and verifies
// the event log, rebuilds all journaled jobs from their payloads,
// requeues unfinished work and starts the dispatcher. A structurally
// invalid log refuses startup rather than risking double execution.
func Open(opts Options) (*Server, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("campaign: Options.Dir is required")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	cache, err := dse.NewCache(filepath.Join(opts.Dir, "cache"))
	if err != nil {
		return nil, err
	}
	key := opts.Key
	if len(key) == 0 {
		if key, err = loadOrCreateKey(filepath.Join(opts.Dir, "receipt.key")); err != nil {
			return nil, err
		}
	}
	log, recs, err := eventlog.Open(filepath.Join(opts.Dir, "events.log"))
	if err != nil {
		return nil, err
	}
	st, err := runstate.Rebuild(recs)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("campaign: refusing to resume: %w", err)
	}
	s := &Server{
		opts:         opts,
		log:          log,
		cache:        cache,
		reg:          idempotency.NewRegistry(),
		key:          key,
		jobs:         map[string]*Job{},
		queue:        make(chan *Job, opts.QueueDepth),
		stop:         make(chan struct{}),
		dispatchDone: make(chan struct{}),
	}
	if err := s.resume(st); err != nil {
		log.Close()
		return nil, err
	}
	go s.dispatch()
	return s, nil
}

// resume rebuilds live jobs from the materialized run state and
// requeues everything unfinished, in acceptance order.
//
// A job is stale when its journaled payload no longer builds, or builds
// to other keys than the journal holds, because the job was accepted by
// an earlier version (one that took "prio" without naming it "priority",
// or the axis value "20ms"). A stale queued or running job is failed
// with the reason, journaled, and its key released, so resubmitting it
// runs it under the current keys. A done job keeps its status and
// receipt whatever the payload does now: its result is reassembled from
// the cache entries the journal names, with the payload supplying only
// the cell labels, and if the payload no longer builds Result reports
// why instead.
func (s *Server) resume(st *runstate.State) error {
	for _, rj := range st.Jobs {
		var id int
		if _, err := fmt.Sscanf(rj.ID, "job-%d", &id); err == nil && id >= s.nextID {
			s.nextID = id
		}
		j := &Job{
			ID:      rj.ID,
			Kind:    rj.Kind,
			Key:     rj.Key,
			Payload: rj.Payload,
			status:  rj.Status,
			err:     rj.Error,
			done:    make(chan struct{}),
		}
		switch rj.Status {
		case runstate.StatusFailed, runstate.StatusCancelled:
			// Failed and cancelled jobs stay visible but release their key
			// so a resubmission can run.
			close(j.done)
		case runstate.StatusDone:
			j.resHash = rj.ResultHash
			r := *rj.Receipt
			j.receipt = &r
			j.cells = make([]cellSpec, len(rj.Cells))
			_, cells, err := buildJob(rj.Kind, rj.Payload)
			if err == nil && len(cells) != len(rj.Cells) {
				err = fmt.Errorf("log says %d cells, payload derives %d", len(rj.Cells), len(cells))
			}
			if err != nil {
				j.err = fmt.Sprintf("payload no longer builds: %v", err)
			}
			for i, c := range rj.Cells {
				if err == nil {
					j.cells[i].label = cells[i].label
				}
				j.cells[i].key = c.Key
			}
			close(j.done)
		default: // queued or running
			cells, err := rebuildCells(rj)
			if err != nil {
				if err := s.log.Append(runstate.EvJobFailed, runstate.JobFailed{ID: rj.ID, Error: err.Error()}); err != nil {
					return err
				}
				j.status, j.err = runstate.StatusFailed, err.Error()
				close(j.done)
				break
			}
			j.cells = cells
			j.cellDone = make([]bool, len(cells))
			j.cellHash = make([]string, len(cells))
			for i, c := range rj.Cells {
				j.cellDone[i] = c.Done
				j.cellHash[i] = c.Hash
			}
		}
		if j.status != runstate.StatusFailed && j.status != runstate.StatusCancelled {
			if owner, dup := s.reg.Claim(rj.Key, rj.ID); dup {
				return fmt.Errorf("campaign: jobs %s and %s share idempotency key %s", owner, rj.ID, rj.Key)
			}
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if j.status == runstate.StatusQueued || j.status == runstate.StatusRunning {
			j.status = runstate.StatusQueued
			s.queue <- j
		}
	}
	return s.log.Commit() // the stale jobs' job.failed records
}

// rebuildCells rebuilds an unfinished job's cells from its journaled
// payload, the source of truth, and checks they still derive to the
// journaled keys. An error names why the job is stale.
func rebuildCells(rj *runstate.Job) ([]cellSpec, error) {
	key, cells, err := buildJob(rj.Kind, rj.Payload)
	if err != nil {
		return nil, fmt.Errorf("campaign: job %s payload no longer builds: %w", rj.ID, err)
	}
	if key != rj.Key {
		return nil, fmt.Errorf("campaign: job %s key drift: log says %s, payload derives %s", rj.ID, rj.Key, key)
	}
	if len(cells) != len(rj.Cells) {
		return nil, fmt.Errorf("campaign: job %s cell drift: log says %d cells, payload derives %d",
			rj.ID, len(rj.Cells), len(cells))
	}
	for i, c := range rj.Cells {
		if cells[i].key != c.Key {
			return nil, fmt.Errorf("campaign: job %s cell %d key drift: log says %s, payload derives %s",
				rj.ID, i, c.Key, cells[i].key)
		}
	}
	return cells, nil
}

// Submit accepts a job. A submission whose idempotency key matches an
// accepted job returns that job's ID with dup=true and runs nothing.
func (s *Server) Submit(kind string, payload []byte) (id string, dup bool, err error) {
	if s.dead.Load() {
		return "", false, eventlog.ErrCrash
	}
	key, cells, err := buildJob(kind, payload)
	if err != nil {
		return "", false, err
	}
	s.mu.Lock()
	s.nextID++
	id = fmt.Sprintf("job-%06d", s.nextID)
	owner, dup := s.reg.Claim(key, id)
	if dup {
		s.nextID-- // ID not consumed
		s.mu.Unlock()
		return owner, true, nil
	}
	cellKeys := make([]string, len(cells))
	for i, c := range cells {
		cellKeys[i] = c.key
	}
	j := &Job{
		ID: id, Kind: kind, Key: key, Payload: payload,
		cells:    cells,
		cellDone: make([]bool, len(cells)),
		cellHash: make([]string, len(cells)),
		status:   runstate.StatusQueued,
		done:     make(chan struct{}),
	}
	if err := s.journal(runstate.EvJobAccepted, runstate.JobAccepted{
		ID: id, Kind: kind, Key: key, Cells: cellKeys, Payload: payload,
	}, true); err != nil {
		s.reg.Forget(key)
		s.nextID--
		s.mu.Unlock()
		return "", false, err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	select {
	case s.queue <- j:
	default:
		// Queue full: fail the job rather than blocking the HTTP handler.
		s.finishFailed(j, fmt.Errorf("campaign: queue full (%d pending)", s.opts.QueueDepth))
	}
	return id, false, nil
}

// dispatch is the single dispatcher goroutine: jobs run one at a time
// in acceptance order (cells fan out within a job), which keeps result
// assembly deterministic at any worker count.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.process(j)
		}
	}
}

func (s *Server) process(j *Job) {
	if s.dead.Load() {
		return
	}
	if j.cancelled.Load() {
		s.finishCancelled(j)
		return
	}
	j.mu.Lock()
	j.status = runstate.StatusRunning
	j.reports = make([]*telemetry.Report, len(j.cells))
	j.mu.Unlock()

	fl := &flights{}
	results := runner.Map(len(j.cells), runner.Options{Jobs: s.opts.Jobs, Retry: 1},
		func(i int) ([]byte, error) { return s.runCell(j, i, fl) })

	if s.dead.Load() {
		return // mid-crash: the resumed server finishes this job
	}
	var requeued []string
	for i, r := range results {
		if r.Err != nil {
			if errors.Is(r.Err, errCancelled) || j.cancelled.Load() {
				s.finishCancelled(j)
				return
			}
			s.finishFailed(j, fmt.Errorf("cell %d (%s): %w", i, j.cells[i].label, r.Err))
			return
		}
		if r.Attempts > 1 {
			requeued = append(requeued, j.cells[i].label)
		}
	}

	// Assemble the canonical campaign result: cells in submission order,
	// each framed with its index and label. Pure function of cell bytes.
	var out []byte
	out = append(out, fmt.Sprintf("simd-result/1 job=%s kind=%s cells=%d\n", j.ID, j.Kind, len(j.cells))...)
	for i, r := range results {
		out = append(out, fmt.Sprintf("-- cell %d %s\n", i, j.cells[i].label)...)
		out = append(out, r.Value...)
	}
	sum := sha256.Sum256(out)
	resHash := hex.EncodeToString(sum[:])

	rcpt := receipt.Sign(receipt.Receipt{
		Job: j.ID, Kind: j.Kind, Key: j.Key, Cells: len(j.cells),
		ResultHash: resHash, Requeued: requeued,
	}, s.key)
	if err := s.journal(runstate.EvJobDone, runstate.JobDone{
		ID: j.ID, ResultHash: resHash, Receipt: rcpt,
	}, true); err != nil {
		return
	}
	j.mu.Lock()
	j.status = runstate.StatusDone
	j.result = out
	j.resHash = resHash
	j.receipt = &rcpt
	j.requeued = requeued
	j.mu.Unlock()
	close(j.done)
}

// runCell executes (or replays) one cell with the cache-through
// protocol that makes completed work crash-proof:
//
//	recovered-done cell: fetch from cache, verify hash, journal nothing
//	otherwise: journal cell.started → cache probe → on miss commit,
//	           execute and PutBytes BEFORE journaling and committing
//	           cell.done
//
// Because the bytes hit the cache before the completion record hits the
// log, a crash between the two costs only the journal entry: the resumed
// lease finds the bytes in the cache and never re-executes. For the same
// reason a cache-served cell commits nothing: its records ride along
// with the next commit, and a kill that loses them costs a cache read.
func (s *Server) runCell(j *Job, i int, fl *flights) ([]byte, error) {
	if j.cancelled.Load() {
		return nil, errCancelled
	}
	c := &j.cells[i]
	if j.cellDone[i] {
		// Completed in a previous life. The cache must hold it — PutBytes
		// happens before the done record is journaled.
		b, ok := s.cache.GetBytes(c.key)
		if !ok {
			return nil, fmt.Errorf("campaign: cell %s journaled done but absent from cache", c.key)
		}
		sum := sha256.Sum256(b)
		if h := hex.EncodeToString(sum[:]); h != j.cellHash[i] {
			return nil, fmt.Errorf("campaign: cell %s cache bytes hash %s, log says %s", c.key, h, j.cellHash[i])
		}
		return b, nil
	}
	if err := s.journal(runstate.EvCellStarted, runstate.CellStarted{Job: j.ID, Idx: i}, false); err != nil {
		return nil, err
	}
	b, cached := s.cache.GetBytes(c.key)
	if !cached {
		var err error
		if b, cached, err = s.execute(j, i, fl); err != nil {
			return nil, err
		}
	}
	sum := sha256.Sum256(b)
	if err := s.journal(runstate.EvCellDone, runstate.CellDone{
		Job: j.ID, Idx: i, Hash: hex.EncodeToString(sum[:]), Cached: cached,
	}, !cached); err != nil {
		return nil, err
	}
	return b, nil
}

// flights holds, for each cell key a job's workers have begun to
// execute, a channel closed when that execution ends.
type flights struct {
	mu sync.Mutex
	m  map[string]chan struct{}
}

// execute runs cell i after it missed the cache, so that a job runs
// each distinct key once: a worker that finds another executing the
// same key waits for that execution and then takes the cache hit,
// returning cached true. If that execution failed, the waiter runs the
// cell itself. An executing worker commits its cell.started first.
func (s *Server) execute(j *Job, i int, fl *flights) ([]byte, bool, error) {
	c := &j.cells[i]
	own := make(chan struct{})
	defer close(own)
	fl.mu.Lock()
	wait := fl.m[c.key]
	if wait == nil {
		if fl.m == nil {
			fl.m = map[string]chan struct{}{}
		}
		fl.m[c.key] = own
	}
	fl.mu.Unlock()
	if wait != nil {
		<-wait
		if b, ok := s.cache.GetBytes(c.key); ok {
			return b, true, nil
		}
	}
	if err := s.log.Commit(); err != nil {
		s.noteLogErr(err)
		return nil, false, err
	}
	b, rep, err := c.run()
	if err != nil {
		return nil, false, err
	}
	s.execs.Add(1)
	if err := s.cache.PutBytes(c.key, b); err != nil {
		// Journaling cell.done now would claim bytes that never
		// reached disk; the next server life would fail the job.
		return nil, false, err
	}
	if rep != nil {
		j.mu.Lock()
		j.reports[i] = rep
		j.mu.Unlock()
	}
	return b, false, nil
}

func (s *Server) finishFailed(j *Job, cause error) {
	msg := stableErr(cause)
	if err := s.journal(runstate.EvJobFailed, runstate.JobFailed{ID: j.ID, Error: msg}, true); err != nil {
		return
	}
	j.mu.Lock()
	j.status = runstate.StatusFailed
	j.err = msg
	j.mu.Unlock()
	s.reg.Forget(j.Key)
	close(j.done)
}

func (s *Server) finishCancelled(j *Job) {
	if err := s.journal(runstate.EvJobCancelled, runstate.JobCancelled{ID: j.ID}, true); err != nil {
		return
	}
	j.mu.Lock()
	j.status = runstate.StatusCancelled
	j.mu.Unlock()
	s.reg.Forget(j.Key)
	close(j.done)
}

// stableErr renders an error deterministically: a recovered panic keeps
// its value but drops the (address-laden, nondeterministic) stack.
func stableErr(err error) string {
	var pe *runner.PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("panic: %v", pe.Value)
	}
	return err.Error()
}

// journal appends one record and, when commit is set, writes it with
// every record buffered before it. A failure latches the server dead.
func (s *Server) journal(typ string, data any, commit bool) error {
	err := s.log.Append(typ, data)
	if err == nil && commit {
		err = s.log.Commit()
	}
	s.noteLogErr(err)
	return err
}

// noteLogErr latches the server dead when the event log fails — after a
// (simulated or real) write failure nothing more may be journaled, so
// nothing more may run.
func (s *Server) noteLogErr(err error) {
	if err != nil {
		s.dead.Store(true)
	}
}

// JobStatus is a point-in-time public view of a job.
type JobStatus struct {
	ID        string            `json:"id"`
	Kind      string            `json:"kind"`
	Key       string            `json:"key"`
	Status    string            `json:"status"`
	Cells     int               `json:"cells"`
	CellsDone int               `json:"cellsDone"`
	Error     string            `json:"error,omitempty"`
	Requeued  []string          `json:"requeued,omitempty"`
	Metrics   *telemetry.Report `json:"metrics,omitempty"`
}

// Status reports a job's current state; done jobs include merged
// telemetry across all cells that produced reports this life.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Kind: j.Kind, Key: j.Key, Status: j.status,
		Cells: len(j.cells), Error: j.err, Requeued: j.requeued,
	}
	for _, done := range j.cellDone {
		if done {
			st.CellsDone++
		}
	}
	if j.status == runstate.StatusDone {
		st.CellsDone = len(j.cells)
		var reps []*telemetry.Report
		for _, r := range j.reports {
			if r != nil {
				reps = append(reps, r)
			}
		}
		if len(reps) > 0 {
			st.Metrics = telemetry.Merge(reps...)
		}
	}
	return st, true
}

// Result returns a done job's assembled result bytes. For a job that
// completed in a previous life the result is assembled lazily from the
// cache and verified against the journaled hash.
func (s *Server) Result(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("campaign: unknown job %s", id)
	}
	j.mu.Lock()
	status, res, want, stale := j.status, j.result, j.resHash, j.err
	j.mu.Unlock()
	if status != runstate.StatusDone {
		return nil, fmt.Errorf("campaign: job %s is %s, not done", id, status)
	}
	if res != nil {
		return res, nil
	}
	if stale != "" {
		// Recovered done job without cell labels (see resume).
		return nil, fmt.Errorf("campaign: job %s result cannot be reassembled: %s", id, stale)
	}
	// Recovered done job: reassemble from the cache.
	var out []byte
	out = append(out, fmt.Sprintf("simd-result/1 job=%s kind=%s cells=%d\n", j.ID, j.Kind, len(j.cells))...)
	for i := range j.cells {
		b, ok := s.cache.GetBytes(j.cells[i].key)
		if !ok {
			return nil, fmt.Errorf("campaign: job %s cell %d missing from cache", id, i)
		}
		out = append(out, fmt.Sprintf("-- cell %d %s\n", i, j.cells[i].label)...)
		out = append(out, b...)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("campaign: job %s reassembled result hash %s, log says %s", id, got, want)
	}
	j.mu.Lock()
	j.result = out
	j.mu.Unlock()
	return out, nil
}

// Receipt returns a done job's signed receipt.
func (s *Server) Receipt(id string) (receipt.Receipt, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return receipt.Receipt{}, fmt.Errorf("campaign: unknown job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.receipt == nil {
		return receipt.Receipt{}, fmt.Errorf("campaign: job %s is %s, no receipt", id, j.status)
	}
	return *j.receipt, nil
}

// Cancel requests cancellation. Queued jobs are cancelled before any
// cell runs; running jobs stop at the next cell boundary. Terminal jobs
// return an error.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("campaign: unknown job %s", id)
	}
	j.mu.Lock()
	status := j.status
	j.mu.Unlock()
	switch status {
	case runstate.StatusDone, runstate.StatusFailed, runstate.StatusCancelled:
		return fmt.Errorf("campaign: job %s already %s", id, status)
	}
	j.cancelled.Store(true)
	return nil
}

// Done returns a channel closed when the job reaches a terminal status.
func (s *Server) Done(id string) (<-chan struct{}, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.done, true
}

// JobIDs returns all job IDs in acceptance order.
func (s *Server) JobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Halted reports whether the server latched dead after an event-log
// failure (including the crash drill).
func (s *Server) Halted() bool { return s.dead.Load() }

// CacheStats exposes the shared result cache's hit/miss counters — the
// harness's proof that resumed campaigns re-execute nothing.
func (s *Server) CacheStats() dse.CacheStats { return s.cache.Stats() }

// Executions returns the number of cells actually executed (cache
// misses that ran a simulation) in this server's lifetime.
func (s *Server) Executions() int64 { return s.execs.Load() }

// SetCrashAfter arms the event log's crash drill: the nth Append from
// now loses every uncommitted record, bar a torn prefix of torn bytes,
// and the server latches dead. Test instrumentation for the
// kill-and-restart harness.
func (s *Server) SetCrashAfter(n int, torn int) { s.log.SetCrashAfter(n, torn) }

// LogRecords re-reads and decodes the event log from disk (longest
// valid prefix), for invariant checks.
func (s *Server) LogRecords() ([]eventlog.Record, error) {
	data, err := os.ReadFile(filepath.Join(s.opts.Dir, "events.log"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	recs, _ := eventlog.Decode(data)
	return recs, nil
}

// Close stops the dispatcher and closes the log. Safe after a crash
// drill.
func (s *Server) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.dispatchDone
	return s.log.Close()
}

// VerifyReceipt checks a receipt against this server's signing key.
func (s *Server) VerifyReceipt(r receipt.Receipt) bool { return receipt.Verify(r, s.key) }

// loadOrCreateKey loads the persisted receipt-signing key, generating
// one on first use so receipts verify across restarts.
func loadOrCreateKey(path string) ([]byte, error) {
	if b, err := os.ReadFile(path); err == nil && len(b) >= 16 {
		return b, nil
	}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, key, 0o600); err != nil {
		return nil, err
	}
	return key, nil
}
