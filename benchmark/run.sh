#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory (the
# checkout root) and runs it with the given arguments. Every file the build
# and the run write stays under .bench_build/ and benchmark/out/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/rlnoc-bench" .
exec "$build/rlnoc-bench" "$@"
