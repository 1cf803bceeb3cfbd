#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper51_sweep --seed 1 --seconds 30 --trace 0
#
# Build output, the Go build cache and temporary files go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
