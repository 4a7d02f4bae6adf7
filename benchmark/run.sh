#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given flags:
#
#   bash benchmark/run.sh --workload lk23-bind --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (object cache, temporary files, the binary)
# stays under .bench_build/ at the root of the checkout; results and traces
# go to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local

cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
