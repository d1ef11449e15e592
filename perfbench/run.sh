#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fig5 --seed 1 --seconds 10 --trace 0
#
# The Go build cache and the binary stay inside the checkout, under
# .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
