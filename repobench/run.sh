#!/usr/bin/env bash
# Builds the repository benchmark from source inside the checkout and runs
# it with the given arguments, e.g.
#
#   bash repobench/run.sh --workload serve-read --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# binary all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/repobench" && go build -o "$out/repobench" .)
exec "$out/repobench" "$@"
