#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload table1 --seed 42 --seconds 20 --trace 0
#
# Build products, the Go build cache and temporary state directories go
# under $CARGO_TARGET_DIR (default .bench_build), so a run reads and
# writes nothing outside the checkout except the Go toolchain itself.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
