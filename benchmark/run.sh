#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout; every build output and temporary file stays under
# .bench_build there.
#
#   bash benchmark/run.sh --workload fleet-steady --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (benchmark/go.mod) that uses the
# repository's packages through a replace directive, so it fails to build
# when the repository's code is not next to it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd benchmark && go build -trimpath -o "$out/talonbench" .)
exec "$out/talonbench" -workdir "$out" "$@"
