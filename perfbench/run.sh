#!/usr/bin/env bash
# Builds drdesync and perfbench from this checkout, then runs perfbench with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# The binaries, the Go build cache, generated inputs, outputs and traces all
# stay under .bench_build/perfbench in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/drdesync" ./cmd/drdesync
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -drdesync "$out/drdesync" -work "$out/work" "$@"
