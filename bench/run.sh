#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload campaign-warm --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the run's temporary
# stores. The toolchain is never downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-tmp"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOENV=off

go build -C "$root/bench" -o "$out/afterimage-bench" .
exec "$out/afterimage-bench" "$@"
