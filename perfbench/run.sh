#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the repository
# root: bash perfbench/run.sh --workload study-matrix --seed 1 --seconds 25 --trace 0
# Build outputs, the Go build cache and the benchmark's temp stores all live
# under .bench_build in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's user config and telemetry
# counters inside .bench_build too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOPROXY=off GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
