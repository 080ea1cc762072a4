#!/usr/bin/env bash
# Builds the benchmark and nocd from the checkout's source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload openloop-mesh8x8-knee --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under the build directory (.bench_build by
# default, or $CARGO_TARGET_DIR when set), including the Go build cache.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/bin" "$build/tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
# The go command keeps telemetry counters under the user config directory.
# With telemetry on (the default "local" mode) it also starts a detached
# child process that outlives the build, so the mode is set to off first.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"
# core.Baseline reads the shard count from the environment; the benchmark
# measures the sequential network.
unset NOCEVAL_SHARDS

go build -o "$build/bin/nocd" ./cmd/nocd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -work "$build" "$@"
