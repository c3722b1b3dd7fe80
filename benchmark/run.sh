#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source inside the
# checkout, then run it with the driver's arguments
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the Go toolchain writes (build cache, binary) goes under
# .bench_build/ in the checkout, so a run touches nothing outside it.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/portals-bench" ./benchmark
exec "$build/portals-bench" "$@"
