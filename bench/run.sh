#!/bin/bash
# The BENCHMARK.json command: build the benchmark from source inside the
# checkout, then run it with the arguments given.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (the Go build cache and the compiler's temporary
# files included) goes under .bench_build at the root of the checkout; the
# benchmark itself writes only bench/out. In a directory that holds only BENCHMARK.json and bench/ the
# build fails, because the program it measures is missing, and the script
# exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

cd "$here"
go build -buildvcs=false -o "$build/hastm-bench-ladder" .
exec "$build/hastm-bench-ladder" "$@"
