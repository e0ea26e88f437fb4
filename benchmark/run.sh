#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it from there. Every file the build or a run leaves behind (Go
# build cache included) stays under the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$here" build -o "$build/dth-bench" .
cd "$root"
exec "$build/dth-bench" "$@"
