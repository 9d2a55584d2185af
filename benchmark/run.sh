#!/usr/bin/env bash
# Builds the benchmark and the treeschedd daemon from this checkout's
# sources into .bench_build/, then runs the benchmark with the given
# arguments. Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload sim-wide --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/
# (the Go build cache, and the go command's telemetry under HOME,
# included); the first run compiles the standard library into it.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/treeschedd || ! -f benchmark/go.mod ]]; then
	echo "benchmark/run.sh: run from the root of a treesched checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/treeschedd" ./cmd/treeschedd
(cd benchmark && go build -o "$out/treebench" .)
exec "$out/treebench" -daemon "$out/treeschedd" "$@"
