#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# All build output, caches and traces stay under .bench_build.
#
#   bash perfbench/run.sh --workload exim-cold --seed 1 --seconds 25 --trace 0
#
# See perfbench/main.go for the subcommands (steady, compare, reference).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
# The go command's cache, temporary files and per-user config (telemetry
# counters live there) stay in the checkout; nothing is downloaded.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" "$@"
