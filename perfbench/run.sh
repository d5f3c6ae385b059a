#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, temporary files, the binary, the
# stores' segment files and the span JSONL of traced runs.
set -euo pipefail
build="$(pwd)/.bench_build"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --out "$build/out" "$@"
