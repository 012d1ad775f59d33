#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. The Go build cache, the Go tool's temporary
# files and its configuration directory are kept inside the checkout too,
# so nothing is read or written outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	go build -C "$root/benchmark" -o "$build/oddci-benchmark" .
cd "$root"
exec "$build/oddci-benchmark" "$@"
