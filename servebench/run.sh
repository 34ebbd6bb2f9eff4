#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's source and runs it.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash servebench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# The build cache and binary live in .bench_build/ under the current
# directory, and the toolchain is kept offline (no module downloads).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$root/servebench" build -o "$out/servebench" .
exec "$out/servebench" "$@"
