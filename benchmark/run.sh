#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout it
# is run from, then runs it with the arguments given. Everything the
# build writes (compiler cache, temporary files, the binary) stays under
# .bench_build/, so nothing outside the checkout is touched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$out/vortex-benchmark" .
exec "$out/vortex-benchmark" "$@"
