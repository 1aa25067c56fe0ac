#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh --workload net3_join_watch
#
# Everything the build writes (binary, Go build cache, Go's own config
# and module directories) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C benchmark -o "$build/rgb-benchmark" .
exec "$build/rgb-benchmark" "$@"
