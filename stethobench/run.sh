#!/usr/bin/env bash
# Builds stethobench from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash stethobench/run.sh --workload tpch-warm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go
# build cache, the binary, datasets, history stores, span files) stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/stethobench" && go build -o "$out/stethobench" .)
exec "$out/stethobench" --workdir "$out" "$@"
