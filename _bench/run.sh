#!/usr/bin/env bash
# Builds the Hermes benchmark from the checkout's sources and runs it.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash _bench/run.sh --workload point-tcp --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and traced runs' spans all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/_bench" && go build -o "$out/hermesbench" .)
exec "$out/hermesbench" "$@"
