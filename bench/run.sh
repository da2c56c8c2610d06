#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through, e.g.:
#
#   bash bench/run.sh --workload forkjoin --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build and the Go caches live in
# .bench_build/ there, so nothing is read or written outside the checkout
# and nothing is fetched: the module has no dependencies beyond the
# repository's own root module.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

go build -C "$root/bench" -o "$out/bench" .
"$out/bench" "$@"
