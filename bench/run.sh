#!/bin/bash
# Builds the benchmark from source and runs it, keeping everything the
# build writes inside the checkout: the Go build cache, the toolchain's
# temporary files and its configuration directory go to .bench_build/,
# which .gitignore names, and the benchmark's own scratch files to
# bench/out/. Run from the root of a checkout:
#
#   bash bench/run.sh --workload model-seq --seed 1 --seconds 16 --trace 0
#
# `go run ./bench` runs the same program with the user's own build cache.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/bench" ]; then
	echo "bench/run.sh: run from the root of a checkout of the module (no go.mod here)" >&2
	exit 1
fi
mkdir -p "$root/.bench_build/gocache" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
# the C compiler cgo calls (package net) and anything else that asks for
# a temporary file
export TMPDIR="$root/.bench_build/tmp"
# the go command keeps its settings and telemetry counters under the
# user's configuration directory, and wants a GOPATH even with no module
# to fetch
export XDG_CONFIG_HOME="$root/.bench_build/config" GOPATH="$root/.bench_build/gopath"
# with telemetry on or local, the first go command in a fresh configuration
# directory starts a detached "** telemetry **" child that outlives it
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$root/.bench_build/afex-bench" ./bench
exec "$root/.bench_build/afex-bench" "$@"
