#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. BENCHMARK.json names this script as its command, so
# it is run from the root of a checkout; everything the build leaves
# behind, Go's build cache included, stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/drms-benchmark" ./benchmark
exec "$out/drms-benchmark" "$@"
