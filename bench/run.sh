#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# inside the checkout and runs it with the arguments given. Everything the
# Go toolchain and the harness write — build cache, temp files, the
# binary, trace files — stays under .bench_build at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go -C "$here" build -o "$build/remos-bench" .
cd "$root"
exec "$build/remos-bench" "$@"
