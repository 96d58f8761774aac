#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE=$out/go-cache GOTMPDIR=$out/go-tmp GOPATH=$out/go-path
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
