#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds flowkvbench from source (first run only, or after a source
# change) and runs it. Everything the build and the run write stays under
# bench/out/: the binary and the Go build cache in bench/out/.build/,
# state and result files beside it.
set -euo pipefail

root="$(pwd)"
build="$root/bench/out/.build"
bin="$build/flowkvbench"
mkdir -p "$build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

# Have the Go runtime give memory back with MADV_FREE, not MADV_DONTNEED: on
# a virtual machine whose host takes freed pages away, touching them again
# costs several microseconds a page in some minutes and next to nothing in
# others, and set-up, which is mostly allocation, swings by a third with it.
export GODEBUG=madvdontneed=0

if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$root/bench/out" -prune -o \( -name '*.go' -o -name go.mod -o -name golden.json \) -newer "$bin" -print -quit)" ]; then
	go -C "$root/bench" build -o "$bin" ./cmd/flowkvbench
fi
exec "$bin" -out bench/out "$@"
