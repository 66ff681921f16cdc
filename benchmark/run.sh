#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: bash benchmark/run.sh --workload ...
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in that checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/nxbenchmark" .) >&2
exec "$build/nxbenchmark" "$@"
