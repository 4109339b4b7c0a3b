#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload la-pbsm --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced run's span files go under
# $CARGO_TARGET_DIR (default .bench_build) so that nothing is written
# outside the checkout. Build output goes to standard error; a failed
# build exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
# Keep the Go tool's caches, scratch files and telemetry inside the
# checkout, and keep it off the network.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
