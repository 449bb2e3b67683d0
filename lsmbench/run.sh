#!/usr/bin/env bash
# Builds lsmbench from this checkout and runs it with the given arguments:
#
#   bash lsmbench/run.sh --workload fillrandom-mem --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs (the binary and the Go
# build cache) go to .bench_build in the repository root, so the run reads
# and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/lsmbench" .)
exec "$out/lsmbench" "$@"
