#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything it writes — Go's build cache, the binary, work directories —
# goes under .bench_build in the directory holding bench/, so a run touches
# nothing outside its own checkout and needs no network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/teabench" . >&2
exec "$build/teabench" "$@"
