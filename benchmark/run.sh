#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Keeps every byte the toolchain
# writes (build cache, temp files, binaries) inside the checkout, then
# becomes the harness, so a signal sent to this process reaches it.
# Flags are the harness's own; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$(dirname "$here")/.bench_build"
mkdir -p "$work/gocache" "$work/gotmp" "$work/bin"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOFLAGS=-buildvcs=false
go build -C "$here/.harness" -o "$work/bin/submitbench" .
exec "$work/bin/submitbench" "$@"
