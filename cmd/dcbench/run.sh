#!/usr/bin/env bash
# Builds dcbench from source and runs it with the given flags, from the
# root of a checkout:
#
#   bash cmd/dcbench/run.sh --workload sweep --seed 3 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# files) stays under .bench_build in the checkout. The build fails, and
# the script exits nonzero, outside a full checkout of the repository.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/cmd/dcbench" build -o "$build/dcbench" .
exec "$build/dcbench" "$@"
