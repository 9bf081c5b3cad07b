#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20
#   bash perfbench/run.sh --compare old.jsonl new.jsonl
#
# Every build output, the Go build cache and the disk-cache journals stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOPATH="$out/gopath"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
