#!/usr/bin/env bash
# Builds the benchmark and olapd from this checkout's sources into
# .bench_build/ and runs the benchmark from the repository root. The Go
# build and module caches are kept inside the checkout too, so a run
# writes nowhere else.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
export GOCACHE=$root/.bench_build/gocache GOMODCACHE=$root/.bench_build/gomodcache
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p .bench_build
(cd benchmark &&
	go build -o "$root/.bench_build/benchmark" . &&
	go build -o "$root/.bench_build/olapd" repro/cmd/olapd) >&2
exec .bench_build/benchmark "$@"
