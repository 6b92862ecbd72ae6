#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the benchmark directory, forwarding every argument. The Go build
# cache, temp files and module path all live under .bench_build, so nothing
# outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/sectopk-benchmark" .
exec "$build/sectopk-benchmark" "$@"
