#!/usr/bin/env bash
# Builds the clustervp benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep-synth --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/
# in the current directory: the Go build cache, the binary, scratch files
# and Chrome traces. The first run compiles the standard library into
# that cache; later runs reuse it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd bench && go build -o "$out/clustervp-bench" .)
exec "$out/clustervp-bench" "$@"
