#!/usr/bin/env bash
# The one command: build the benchmark once, inside the checkout, and run it.
#
#   benchmark/run.sh                          every workload (own process each), every metric
#                                             by name with its unit, then the traced pass
#   benchmark/run.sh -workload hermit-read -seed 2 -trace 0     one run; result JSON on the last line
#   benchmark/run.sh -selfcheck 5             two sets of 5 runs per workload, medians compared
#
# Flags: -workload NAME, -seed N, -seconds S, -scale F, -trace 0|1, -selfcheck N, -json.
# The driver calls it as: run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
build="${PWD}/benchmark/out/build"
mkdir -p "$build"
# Everything the build writes stays under benchmark/ (XDG_CONFIG_HOME: the
# go command's config directory); nothing is downloaded. Telemetry is switched
# off there first (what `go telemetry off` writes): with a fresh config
# directory the go command otherwise starts a detached telemetry child process
# that outlives this script.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/hermit-benchmark" ./benchmark
exec "$build/hermit-benchmark" "$@"
