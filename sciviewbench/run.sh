#!/usr/bin/env bash
# Builds the sciview benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash sciviewbench/run.sh --workload sql-warm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in the working directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# Keep every file the Go tool writes (build cache, module cache, its
# config and telemetry) inside the build directory.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$here" build -o "$build/sciviewbench" .
exec "$build/sciviewbench" "$@"
