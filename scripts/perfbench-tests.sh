#!/bin/sh
# Runs the end-to-end benchmark's self-tests. perfbench is a Go module of
# its own (replace repro => ../), so `go test ./...` at the root never
# reaches it. Its tests pin the metric names against BENCHMARK.json,
# per-op metrics independent of run length, tampered outputs failing
# their op, and a warm reset starting a fresh server life.
#
# The campaign tests create tens of thousands of cache files under
# t.TempDir() and unlink them again, which takes minutes on a disk-backed
# TMPDIR: when /dev/shm is a tmpfs, TMPDIR points at a fresh directory
# there, removed afterwards.
#
#   ./scripts/perfbench-tests.sh      # or: make perfbench-test
set -u
cd "$(dirname "$0")/../perfbench" || exit 1

if [ "$(stat -f -c %T /dev/shm 2>/dev/null)" = tmpfs ] &&
	shm=$(mktemp -d /dev/shm/perfbench-test.XXXXXX); then
	TMPDIR=$shm go test ./...
	rc=$?
	rm -rf "$shm"
	exit $rc
fi
exec go test ./...
