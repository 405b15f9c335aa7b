#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# BENCHMARK.json names this script as the benchmark's command. Everything
# the Go toolchain writes — build cache, module cache, its own telemetry —
# is kept under .bench_build/ too, so a run touches nothing outside the
# checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
go build -C "$(dirname "$0")" -o "$out/fuse-bench" .
exec "$out/fuse-bench" "$@"
