#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it. Run
# from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --selfcheck
#
# Build outputs, the Go build cache and the traced run's spans go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
