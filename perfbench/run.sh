#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload schedule-v1k --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product and toolchain cache goes
# under .bench_build/ in that root, so the run writes nothing outside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
