#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (compiler cache, temp files, the binary) stays
# under .bench_build/ in the checkout; nothing is downloaded.
#
#   bash bench/run.sh                                   # all four workloads
#   bash bench/run.sh --workload small-mix --seed 3 --seconds 18 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$build/staging-bench" .
cd "$root"
exec "$build/staging-bench" "$@"
