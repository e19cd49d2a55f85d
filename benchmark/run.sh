#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ inside the checkout (Go build cache, binary and temp files
# included, so nothing is read or written outside it) and runs it from the
# checkout root with the caller's arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/splitbft-benchmark" .)
cd "$root"
exec "$build/splitbft-benchmark" "$@"
