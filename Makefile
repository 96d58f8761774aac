# Convenience wrappers around the tier-1 verification gate
# (scripts/check.sh). Everything is stdlib-only Go; there is no separate
# build step beyond the toolchain's.

.PHONY: check test build vet fmt-check race race-batch fuzz fuzz-telemetry fuzz-eventlog golden golden-update overhead soak faults bench bench-check bench-baseline bench-dse bench-dse-check bench-dse-baseline engine-equivalence checkpoint-equivalence timer-boundary conformance personality-overhead dse-check simd campaign-resume perfbench-test table1-budget session-allocs

check: ## full tier-1 gate (scripts/check.sh: static checks, race tests, contract passes, baselines, crash-resume, soak, fault smoke)
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

fmt-check: ## fail if any Go file is not gofmt-formatted
	test -z "$$(gofmt -l .)"

race:
	go test -race ./...

race-batch: ## extra race-detector passes over the concurrency-critical packages
	go test -race -count=2 ./internal/runner ./internal/simcheck

fuzz: ## native Go fuzzing of the SDL parser (30s)
	go test ./internal/sdl/ -fuzz FuzzParse -fuzztime 30s

fuzz-telemetry: ## native Go fuzzing of the telemetry binary event codec (30s)
	go test ./internal/telemetry/ -fuzz FuzzEventStream -fuzztime 30s

fuzz-eventlog: ## native Go fuzzing of the campaign event-log recovery path and record encoder (30s each)
	go test ./internal/campaign/eventlog/ -fuzz FuzzEventLog -fuzztime 30s
	go test ./internal/campaign/eventlog/ -fuzz FuzzEncode -fuzztime 30s

simd: ## build the campaign server daemon
	go build ./cmd/simd

campaign-resume: ## kill-and-restart differential matrix: crash at every log position, resume, diff against golden (jobs 1 and 8, race detector)
	go test -race -run 'TestCrashResume|TestResumeServesDoneJobsFromCache' -count=1 -v ./internal/campaign | tail -5

perfbench-test: ## the end-to-end benchmark's own tests (a separate module that go test ./... does not reach; ~30s)
	cd perfbench && go test ./...

table1-budget: ## allocation-count and allocated-byte budgets of the Table-1 pair (RunSpec + RunArch)
	go test -run 'TestTable1AllocBudget|TestTable1ByteBudget' -count=1 -v .

session-allocs: ## exact allocation pins of an rtc session (build, whole run, steady state) and the machine size guard
	go test -run 'TestNewSessionAllocs|TestNewSessionChannelAllocs|TestSteadyStateAllocs|TestFrameFields' -count=1 -v ./internal/rtc

golden: ## golden-trace diff against testdata/golden
	go test -run 'TestGoldenTrace' -count=1 .

golden-update: ## regenerate the golden traces (review the diff!)
	go test -run 'TestGoldenTrace' -count=1 -update .

overhead: ## telemetry overhead guard + benchmarks
	TELEMETRY_OVERHEAD_GUARD=1 go test -run TestTelemetryOverheadGuard -count=1 -v .
	go test -bench 'BenchmarkTelemetry' -benchmem -run '^$$' .

soak: ## long scheduler soak with the property-based harness (parallel seeds)
	go run ./cmd/simfuzz -start 10000 -duration 10m -jobs 4

faults: ## fault-injection campaign with the diagnosis gates (seeds × plans)
	go run ./cmd/simfuzz -faults -n 64 -jobs 8

bench: ## run the kernel performance scenarios and print the table
	go run ./cmd/simbench

bench-check: ## gate the scenarios against the committed BENCH_kernel.json
	go run ./cmd/simbench -check -tolerance 1.0

bench-baseline: ## re-record BENCH_kernel.json (review the diff!)
	go run ./cmd/simbench -out BENCH_kernel.json

bench-dse: ## run the design-space-exploration scenarios and print the table
	go run ./cmd/simbench -suite dse

bench-dse-check: ## gate the DSE scenarios against the committed BENCH_dse.json
	go run ./cmd/simbench -suite dse -check -tolerance 1.0

bench-dse-baseline: ## re-record BENCH_dse.json (review the diff!)
	go run ./cmd/simbench -suite dse -out BENCH_dse.json

timer-boundary: ## timer queue ordering: differential harness vs sorted-slice reference, id reuse, pointer-free cells + RunUntil edges
	go test -run 'TestDifferentialVsHeap|TestSameInstantSeqOrder|TestCancelUnqueued|TestPushQueuedIDPanics|TestEachEnumeratesAll|TestZeroAllocSteadyState|TestTimersPointerFree|TestTimerCancelCompaction|TestRunUntilBoundary' -count=1 ./internal/sim

engine-equivalence: ## goroutine-vs-run-to-completion engine byte-equivalence matrix (simcheck corpus, taskset matrix, rtc.RunGoroutine, SDL corpus + goldens, multi-CPU goldens)
	go test -run 'TestEngineEquivalence|TestDiagnosisEquivalence' -count=1 ./internal/simcheck ./internal/taskset
	go test -run 'TestEngineEquivalence|TestRunGoroutine' -count=1 ./internal/rtc
	go test -run 'TestEngineEquivalence|TestGoldenTracesSDL' -count=1 ./internal/sdl
	go test -run 'TestSMPGolden|TestSMPJobMetrics|TestEngineAxisJobMetrics' -count=1 ./internal/simcheck ./internal/taskset ./internal/campaign ./cmd/experiments

checkpoint-equivalence: ## rtc snapshot/restore byte-equivalence: simcheck matrix + rtc engine suite + core.StateCodec tests
	go test -run 'TestCheckpoint' -count=1 ./internal/simcheck
	go test -run 'TestSnapshot|TestRestore' -count=1 ./internal/rtc
	go test -run 'TestStateCodec' -count=1 ./internal/core

dse-check: ## design-space-exploration gates: memoization, Pareto, cache keys, fork sweeps + BENCH_dse.json baseline
	go test -race -count=1 ./internal/dse
	go run ./cmd/simbench -suite dse -check -tolerance 1.0

conformance: ## RTOS personality conformance suites (µITRON 4.0, OSEK OS 2.2.3)
	go test -run 'TestITRONConformance' -count=1 -v ./internal/personality/itron | tail -3
	go test -run 'TestOSEKConformance' -count=1 -v ./internal/personality/osek | tail -3
	go test -run 'TestCrossPersonalityCorpus' -count=1 ./internal/simcheck

personality-overhead: ## personality dispatch overhead guard + benchmarks
	PERSONALITY_OVERHEAD_GUARD=1 go test -run TestPersonalityOverheadGuard -count=1 -v .
	go test -bench 'BenchmarkPersonality' -benchmem -run '^$$' .
