#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload kv-point --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs and the Go caches stay in
# .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOENV=off GOFLAGS= XDG_CONFIG_HOME=$out/config
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
