#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload small-openloop --seed 1 --seconds 30 --trace 0
# Run from the repository root. The build cache, binary and scratch
# state all live under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
