#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash servebench/run.sh --workload lubm-table2 --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and run data stay under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
