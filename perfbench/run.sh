#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it; every
# argument is passed on. Run from the repository root:
#
#   bash perfbench/run.sh --workload knn-batch --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and stored datasets all live under
# .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build/data" "$@"
