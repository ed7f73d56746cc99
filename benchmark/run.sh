#!/usr/bin/env bash
# Builds the benchmark and the dnsbld daemon from this checkout's source
# into .bench_build/, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
#
# Everything it writes (build cache, binaries, scratch files, traces)
# stays under .bench_build/. Without the repository's source next to
# benchmark/ the build fails and the script exits non-zero.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(
	cd benchmark
	go build -o "$out/bench" .
	go build -o "$out/dnsbld" unclean/cmd/dnsbld
) >&2

exec "$out/bench" -dnsbld "$out/dnsbld" -work "$out" "$@"
