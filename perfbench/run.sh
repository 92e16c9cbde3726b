#!/usr/bin/env bash
# Builds the benchmark and cmd/exaserve from this checkout, then runs one
# workload from the checkout's root:
#
#   bash perfbench/run.sh --workload sim_scaling --seed 1 --seconds 32 --trace 0
#
# Build outputs, the Go build cache, logs and traces go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/exaserve" exaresil/cmd/exaserve)
exec "$out/bin/perfbench" -bin "$out/bin" -state "$out" "$@"
