#!/usr/bin/env bash
# Entry point of the cdmm end-to-end benchmark. From the repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 10 --trace 0
#
# It builds the cdmm CLI and the benchmark driver from source, keeping
# build caches and temporary files under .bench_build/, then runs the
# driver, which prints one JSON result line last on stdout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cdmm || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a cdmm source tree" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/cdmm" ./cmd/cdmm
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -cdmm "$out/cdmm" -work "$out/work" "$@"
