#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload fr_mesh --seed 0 --seconds 35 --trace 0
#
# Everything the build and the run write stays under the build directory,
# $CARGO_TARGET_DIR when set and .bench_build otherwise: the Go build cache,
# the binary, and the temporary result databases. The toolchain is never
# asked to download anything.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
