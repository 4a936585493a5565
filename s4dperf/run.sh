#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#   bash s4dperf/run.sh --workload hot-net --seed 1 --seconds 10 --trace 0
# Every build and cache file stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
bin="$build/s4dperf"
go -C "$root/s4dperf" build -o "$bin.tmp.$$" . || { rm -f "$bin.tmp.$$"; exit 1; }
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" "$@"
