#!/usr/bin/env bash
# Builds msperf from source and runs it with the given arguments:
#   bash msperf/run.sh --workload table2|serve|churn --seed N --seconds S --trace 0|1
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build there.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f msperf/go.mod ]]; then
	echo "msperf: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C msperf build -trimpath -o "$out/msperf.bin" .
exec "$out/msperf.bin" "$@"
