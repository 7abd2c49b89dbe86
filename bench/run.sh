#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds ./bench from the sources of the
# checkout it is run in and executes it with the driver's arguments
# (--workload, --seed, --seconds, --trace). Everything the build and the run
# write stays inside the checkout, under .bench_build/.
set -euo pipefail
root=$PWD
test -f "$root/go.mod" || { echo "bench/run.sh: run from the repository root (go.mod not found)" >&2; exit 1; }
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
go build -buildvcs=false -o "$build/bench" ./bench
exec "$build/bench" "$@"
