#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# files, span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/run" "$@"
