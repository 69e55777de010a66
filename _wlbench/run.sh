#!/bin/sh
# Builds the benchmark (_wlbench/, a Go module that imports the
# repository's packages through a replace directive) from source and
# runs it with the given arguments, e.g.
#
#	sh _wlbench/run.sh --workload failure_ladder --seed 42 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, Go's build cache and
# every file a run writes stay under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -eu
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
(cd _wlbench && go build -buildvcs=false -o "$build/wlbench" .)
exec "$build/wlbench" "$@"
