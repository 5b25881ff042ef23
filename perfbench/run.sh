#!/usr/bin/env bash
# Served-path benchmark launcher. Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 15 --trace 0
#
# Builds the benchmark and the trictd daemon from source into
# .bench_build/ (Go build cache included, so nothing is written outside
# the checkout), then hands over to the benchmark binary. Any build
# failure exits non-zero before a result is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go -C perfbench build -o "$build/perfbench" .
go -C perfbench build -o "$build/trictd" streamtri/cmd/trictd
exec "$build/perfbench" -trictd "$build/trictd" -work "$build" "$@"
