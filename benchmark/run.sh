#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes stays under .bench_build
# (build cache, module cache, temporary files, the binary, and the env file
# and telemetry counters it keeps in the user's config directory), and
# everything the benchmark writes under .bench_work, so a run touches nothing
# outside the checkout. BENCHMARK.json names this script as the driver's
# command; `go run ./benchmark ...` from the repository root runs the same
# program.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$build/benchmark" ./benchmark
# A cold build leaves ~100 MB of dirty pages; flushing them now keeps the
# kernel's writeback out of the first rounds that follow.
sync
exec "$build/benchmark" "$@"
