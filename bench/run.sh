#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# inside the checkout, then run it with the caller's arguments. Caches,
# the binary and every scratch file stay under .bench_build/ so nothing
# is read or written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/ldp-bench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/ldp-bench" .)
exec "$out/ldp-bench" -workdir "$out" "$@"
