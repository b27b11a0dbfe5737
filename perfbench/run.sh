#!/usr/bin/env bash
# Builds the benchmark program and runs it from the checkout root:
#
#   bash perfbench/run.sh --workload check_fig4a --seed 1 --seconds 20 --trace 0
#
# Every build artefact and scratch file lives under .bench_build in the
# checkout; nothing is read or written outside it.
set -euo pipefail
root=$(pwd)
b="$root/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$b/perfbench" .)
exec "$b/perfbench" -root "$root" "$@"
