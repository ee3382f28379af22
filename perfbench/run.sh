#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload daemon-churn --seed 42 --seconds 55 --trace 0
#   bash perfbench/run.sh --selfcheck
#   bash perfbench/run.sh compare --workload daemon-churn parent.jsonl change.jsonl
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
