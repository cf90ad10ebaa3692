#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root; BENCHMARK.json names this script as the command. Everything the build
# leaves behind — Go's build cache included — goes under .bench_build/, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/abacus-bench" .)
cd "$root"
exec "$out/abacus-bench" "$@"
