#!/usr/bin/env bash
# Builds simweb, minaret-server and the benchmark from this checkout,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload editor-cold --seed 1 --seconds 32 --trace 0
#
# Run it from the root of the repository. Everything it builds or
# writes goes under .bench_build/, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/" ./cmd/simweb ./cmd/minaret-server >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
