#!/usr/bin/env bash
# Builds the benchmark and the server under test from this checkout, then
# runs one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and run record stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# Build output goes to stderr so the result stays the last line of stdout.
(cd perfbench && go build -o "$build/perfbench" .) >&2
go build -o "$build/cycleserved" ./cmd/cycleserved >&2
exec "$build/perfbench" -server "$build/cycleserved" -out "$build/runs" "$@"
