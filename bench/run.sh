#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command): builds the
# harness from bench/ and runs it with the given arguments. Everything the
# build and the run write stays inside the checkout: the Go build cache and
# the binaries under .bench_build/, results under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOWORK=off GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin" "$GOTMPDIR"
go build -C "$root/bench" -o "$root/.bench_build/bin/bench" .
cd "$root"
exec "$root/.bench_build/bin/bench" "$@"
