#!/usr/bin/env bash
# Builds dgserve and the benchmark from the checkout it is run in, then runs
# one workload:
#
#   bash daemonbench/run.sh --workload epoch --seed 7 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, Go cache and daemon
# data directory stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$build/dgserve" ./cmd/dgserve
(cd daemonbench && go build -o "$build/daemonbench" .)
# Flush what the builds wrote, so its writeback does not land in the timings.
sync
exec "$build/daemonbench" -dgserve "$build/dgserve" -work "$build/work" "$@"
