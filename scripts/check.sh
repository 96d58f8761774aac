#!/bin/sh
# Tier-1 verification gate (see README.md "Verification"). It runs, in
# order:
#
#   - static checks: go vet, gofmt, go build;
#   - the full test suite under the race detector, and the batch engine
#     and simcheck again at -count=2;
#   - named contract passes: golden traces, the built-in models (the
#     embedded Figure 3 and JPEG SDL files), one event record (one
#     scheduler adapter, the trace recorder a sink of the telemetry
#     stream, markers on every bus), the Table-1 allocation
#     and byte budgets, the rtc session allocation pins, the telemetry overhead guard, the itron/osek conformance
#     suites and cross-personality corpus, goroutine-vs-rtc engine
#     equivalence (simcheck, taskset, rtc.RunGoroutine, sdl),
#     timer queue ordering, the goroutine kernel's coroutine hand-off
#     and GC-independent process recycling,
#     checkpoint/restore equivalence and
#     the design-space-exploration gates;
#   - perfbench's self-tests (a separate module) and the personality
#     dispatch overhead guard;
#   - the committed performance baselines (BENCH_kernel.json,
#     BENCH_dse.json): allocation counts exactly, ns/op within 100 %;
#   - campaign crash-resume at jobs 1 and 8 under the race detector
#     (cold and warm jobs), the campaign journal golden, dse key
#     equivalence, the dse submit allocation budget, one execution per
#     distinct dse cell key, and the event log's group-commit tests;
#   - a bounded simfuzz soak and the fault-injection smoke.
#
#   ./scripts/check.sh                       # full gate (a few minutes)
#   SIMFUZZ_DURATION=5s ./scripts/check.sh   # shorter soak
#
# Every step runs even when an earlier one fails; the script then lists
# the failed steps and exits non-zero.
set -u
cd "$(dirname "$0")/.." || exit 1

failed=""
last=""

# step NAME CMD...: print the header of step NAME (once for consecutive
# commands of one step), run CMD and record it if it fails.
step() {
	name=$1
	shift
	[ "$name" = "$last" ] || echo "== $name"
	last=$name
	if ! "$@"; then
		failed="$failed
  $name: $*"
	fi
}

step "go vet ./..." go vet ./...

step "gofmt -l ." sh -c 'test -z "$(gofmt -l .)"'

step "go build ./..." go build ./...

step "go test -race ./..." go test -race ./...

# The batch engine and the property harness are the two packages whose
# bugs only show up under contention; run them again with a higher
# -count so the race detector sees more interleavings.
step "go test -race -count=2 ./internal/runner ./internal/simcheck" go test -race -count=2 ./internal/runner ./internal/simcheck

# Golden-trace diff: the canonical telemetry event streams of the two
# example designs must match testdata/golden/ byte-for-byte, sequentially
# and under the parallel batch engine. (go test ./... above already ran
# these; this explicit pass keeps the gate's contract visible and
# survives future test-filtering in the step above.)
step "golden-trace diff (testdata/golden)" go test -run 'TestGoldenTrace' -count=1 .

# One event record: telemetry.AttachSched is the only adapter from a
# scheduler's observer hooks, and telemetry does not import trace (the
# structural guard); an rtc session's bus gets the SDL markers with the
# trace off or on, equal to the goroutine kernel's; the recorder fed by
# the stream matches the reference observer and the latency oracle; and
# the trace-format goldens (SDL corpus, rtcsnap/3 rec lines) keep their
# bytes.
step "one event record" go test -run 'TestOneEventRecord' -count=1 .
step "one event record" go test -run 'TestSessionBusGetsMarkers|TestGoldenTracesSDL' -count=1 ./internal/sdl
step "one event record" go test -run 'TestAttach|TestPaged|TestLatenciesMatchesOracle|TestMarkerLatencies' -count=1 ./internal/trace
step "one event record" go test -run 'TestSnapshotGolden' -count=1 ./internal/rtc

# Table-1 allocation budget: one RunSpec + RunArch pair of the full-size
# vocoder must stay within a fixed allocation count and a fixed number of
# allocated bytes, so trace storage and queue bookkeeping stay off the
# paper's figure-of-merit hot path. (go test ./... above already ran
# them; the explicit pass keeps the budgets visible in the gate.)
step "Table-1 allocation budget" go test -run 'TestTable1AllocBudget|TestTable1ByteBudget' -count=1 .

# rtc session allocation pins: building a session, running it and its
# steady state allocate exactly the pinned counts (one allocation per
# object class, none per machine, timer or switch), so per-session
# set-up cannot creep back onto the sweep path. TestFrameFields keeps a
# machine within 232 B with its frame stack as its only slice (no waiter
# lists), and its frames free of copies of the machine's OS state,
# kernel and task.
step "rtc session allocation pins" go test -run 'TestNewSessionAllocs|TestNewSessionChannelAllocs|TestSteadyStateAllocs|TestFrameFields' -count=1 ./internal/rtc

# Telemetry overhead guard: an always-on ring sink must cost a fixed
# amount per event. Its added allocations are the same at 64 and 512
# frames (exact), and its added CPU per event does not grow with the
# stream; neither check moves when the kernel gets faster.
step "telemetry overhead guard" env TELEMETRY_OVERHEAD_GUARD=1 go test -run TestTelemetryOverheadGuard -count=1 -v .

# RTOS personality conformance: the µITRON 4.0 and OSEK OS 2.2.3 suites
# (spec-clause-keyed, table-driven) plus the seeded cross-personality
# corpus whose per-task outcomes must match the generic kernel run for
# every seed. (go test ./... above already ran these; the explicit pass keeps
# the personality layer's contract visible in the gate.)
step "personality conformance suites (itron, osek) + cross corpus" go test -run 'TestITRONConformance' -count=1 ./internal/personality/itron
step "personality conformance suites (itron, osek) + cross corpus" go test -run 'TestOSEKConformance' -count=1 ./internal/personality/osek
step "personality conformance suites (itron, osek) + cross corpus" go test -run 'TestCrossPersonalityCorpus' -count=1 ./internal/simcheck

# Execution-engine equivalence: the run-to-completion engine
# (internal/rtc, -engine=rtc) must produce byte-identical traces,
# diagnoses and statistics to the goroutine kernel across the
# policy × time-model × personality matrix — the seeded simcheck
# corpus, the taskset-level matrix, rtc.RunGoroutine against rtc.Run on
# the flat shapes neither front end sends (Repeat, release ops,
# interrupt-fed semaphores beside queues), and the SDL corpus
# (hierarchical seq/par behaviors, handshakes, split stimulus/ISR
# interrupts: figure3, jpeg, vocoder, bus-driver) with its per-example golden
# traces, the multi-CPU goldens of the global-scheduler runs
# rtc.RunGoroutine lowers (simcheck's SMP rows, taskset cells and
# telemetry, a 2-CPU campaign job, the EXT-SMP table), and core's
# multi-CPU tests of the global scheduler that core.Sched runs on M CPUs
# (Dhall's effect, global preemption, migrations, watchdog). (go test
# ./... above already ran these; the explicit pass keeps the two-engine
# contract visible.)
step "execution-engine equivalence (goroutine vs run-to-completion)" go test -run 'TestEngineEquivalence|TestDiagnosisEquivalence' -count=1 ./internal/simcheck ./internal/taskset
step "execution-engine equivalence (goroutine vs run-to-completion)" go test -run 'TestEngineEquivalence|TestRunGoroutine' -count=1 ./internal/rtc
step "execution-engine equivalence (goroutine vs run-to-completion)" go test -run 'TestEngineEquivalence|TestGoldenTracesSDL' -count=1 ./internal/sdl
step "execution-engine equivalence (goroutine vs run-to-completion)" go test -run 'TestSMPGolden|TestSMPJobMetrics|TestEngineAxisJobMetrics' -count=1 ./internal/simcheck ./internal/taskset ./internal/campaign ./cmd/experiments
step "execution-engine equivalence (goroutine vs run-to-completion)" go test -run 'TestDhallsEffect|TestTwoCPUsRunTwoTasksInParallel|TestSingleCPUEqualsUniprocessorSerialization|TestGlobalPreemption|TestMigrationCounting|TestQuickWorkConservation|TestQuickNeverMoreRunningThanCPUs|TestCoarseModePreemptsAtSchedulingPoints|TestCoarsePeriodicSet|TestSMPWatchdog|TestValidation' -count=1 ./internal/core

# Built-in models: the paper's examples are SDL files embedded by
# internal/sdl (Figure 3, the JPEG encoder's mappings). The Figure 8 and
# JPEG checks run on them, the SDL runners release every goroutine they
# start, and the Figure 3 and corpus golden traces hold on both engines.
step "built-in models" go test -run 'TestFigure8|TestFigure3|TestCoarsePreemptionPinnedToDelayBoundary|TestJPEG|TestRunnersReleaseGoroutines|TestGoldenTracesSDL' -count=1 ./internal/sdl
step "built-in models" go test -run 'TestGoldenTrace' -count=1 .
step "built-in models" go test -run 'TestParForksOutgrowFirstSlab' -count=1 ./internal/rtc

# Timer-queue ordering: the timer queue both engines share must agree
# with the sorted-slice reference on every schedule/cancel/advance
# interleaving the randomized differential harness produces, reused ids
# included, fire same-instant timers in FIFO (seq) order whatever order
# they were pushed in, stay allocation-free in its steady state and hold
# no pointers; cancelation must free heap cells and timer ids at once;
# RunUntil must honour its inclusive horizon.
step "timer queue ordering + differential harness" go test -run 'TestDifferentialVsHeap|TestSameInstantSeqOrder|TestCancelUnqueued|TestPushQueuedIDPanics|TestEachEnumeratesAll|TestZeroAllocSteadyState|TestTimersPointerFree|TestTimerCancelCompaction|TestRunUntilBoundary' -count=1 ./internal/sim

# Goroutine-kernel hand-off: processes run on pooled runtime coroutines
# (carriers). Kill of a never-run, waiting, self or Par-parent process,
# Shutdown at a horizon, a re-raised panic and runtime.Goexit each leave
# the idle stack sound; kernels on several goroutines share it; the
# goroutine count stays bounded by the idle cap; and a run allocates the
# same count whether or not collections precede it, since idle Procs
# and carriers outlive a GC.
step "goroutine-kernel hand-off" go test -race -count=3 -run 'TestHandoff|TestShutdownReleasesGoroutines|TestRecyclingIgnoresGC' ./internal/sim

# Checkpoint equivalence: an rtc session snapshotted at a randomized
# instant and restored into a fresh session must finish with
# byte-identical traces and statistics across the simcheck matrix — plus
# the rtc snapshot suite (determinism, forking, structure-hash
# rejection, impossible-state rejection, the snapshot/restore alloc pin)
# and the core.StateCodec unit tests (the one codec both directions use:
# round trips, exact-spelling refusals, sticky errors). (go test ./...
# above already ran these; the explicit pass keeps the checkpoint
# contract visible in the gate.)
step "checkpoint/restore equivalence (simcheck matrix + rtc suite)" go test -run 'TestCheckpoint' -count=1 ./internal/simcheck
step "checkpoint/restore equivalence (simcheck matrix + rtc suite)" go test -run 'TestSnapshot|TestRestore' -count=1 ./internal/rtc
step "checkpoint/restore equivalence (simcheck matrix + rtc suite)" go test -run 'TestStateCodec' -count=1 ./internal/core

# Design-space-exploration gates: memoization accounting (a repeated
# sweep must be answered 100% from the content-hash cache, byte-identical
# to the cold run), Pareto-front ranking, cache-key canonicalization
# (golden hash), and checkpoint-forked sweeps.
step "design-space exploration gates (internal/dse)" go test -race -count=1 ./internal/dse

# End-to-end benchmark self-tests (~30 s): perfbench is a Go module of
# its own, so go test ./... above never reaches it. The helper runs them
# with TMPDIR on a tmpfs when /dev/shm is one (see its header).
step "perfbench self-tests (separate module)" ./scripts/perfbench-tests.sh

# Personality dispatch overhead guard: the personality interface in
# front of the core services must stay within 5% of direct calls on the
# context-switch scenario (generic passthrough isolates the indirection).
step "personality dispatch overhead guard" env PERSONALITY_OVERHEAD_GUARD=1 go test -run TestPersonalityOverheadGuard -count=1 -v .

# Kernel performance gate: re-run the benchmark scenarios — both the
# goroutine kernel's and the run-to-completion engine's (rtc/*) — and
# compare against the committed baseline (BENCH_kernel.json). Allocation
# counts are gated exactly — any steady-state alloc regression fails here —
# while ns/op gets a wide 100% tolerance to absorb host variation.
step "simbench baseline check (BENCH_kernel.json)" go run ./cmd/simbench -check -tolerance 1.0

# DSE throughput gate: configurations/second cold vs memoized and the
# checkpoint snapshot/restore cost against the committed BENCH_dse.json.
# The snapshot/restore alloc counts are gated exactly, like the kernel
# suite's.
step "simbench DSE baseline check (BENCH_dse.json)" go run ./cmd/simbench -suite dse -check -tolerance 1.0

# Campaign crash-resume gate: the simulation-as-a-service server
# (cmd/simd, internal/campaign) is killed at every event-log position
# mid-campaign and restarted; the finished campaign must be
# byte-identical to the uninterrupted golden run — results, signed
# receipts, canonical run state — with zero completed cells re-executed
# (cache-hit accounting), at worker counts 1 and 8 under the race
# detector. The warm matrix kills a job whose cells are all cached at
# every log position, inside the window where its group-committed cell
# records are still buffered, and checks they are lost and re-served
# without executing. The journal golden pins the bytes of a one-worker
# campaign's event log, results and receipts, so cell keys, idempotency
# keys and journal lines cannot drift from what persisted directories
# hold. The dse key-equivalence test checks that a sweep's keys, built
# from one rendering of the base's task lines, equal the keys of each
# variant rendered whole, and the submit allocation budget keeps that
# rendering once per job. The distinct-keys test checks that a sweep
# whose cells share a key executes it once at any worker count. The
# event log's own tests pin the group commit: Append buffers, Commit
# writes once, a kill loses only uncommitted records, and a failed write
# latches the log. (go test -race ./... above already ran these; the
# explicit pass keeps the crash-resume contract visible in the gate.)
step "campaign crash-resume differential matrix (jobs 1 and 8)" go test -race -run 'TestCrashResume|TestResumeServesDoneJobsFromCache|TestJournalGolden|TestDSEKeyEquivalence|TestDSESubmitAllocBudget|TestDSEDistinctKeysRunOnce' -count=1 ./internal/campaign
step "campaign crash-resume differential matrix (jobs 1 and 8)" go test -race -count=1 ./internal/campaign/eventlog

# Soak the scheduler with fresh seeds (offset so they do not just repeat
# the seeds go test already covered); 4 seeds in flight exercises the
# concurrent-kernel contract on every run of this gate.
step "simfuzz soak (${SIMFUZZ_DURATION:-30s}, 4 jobs)" go run ./cmd/simfuzz -start 10000 -duration "${SIMFUZZ_DURATION:-30s}" -jobs 4

# Fault-injection campaign smoke: 16 seeds across the built-in plan
# battery with the three diagnosis gates — no false positive on any
# ExpectClean plan, the diagnostic stream byte-identical at -jobs 8 and
# -jobs 1, and the seeded three-task semaphore deadlock detected with its
# exact wait-for cycle (README.md "Robustness").
step "fault-injection campaign smoke (16 seeds, 8 jobs)" go run ./cmd/simfuzz -faults -n 16 -jobs 8

if [ -n "$failed" ]; then
	echo "check.sh: failed steps:$failed"
	exit 1
fi
echo "check.sh: all gates passed"
