#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload fig5-w2-delta16 --seed 1 --seconds 20 --trace 0
#
# The build cache and binary live in bench/.build/, so nothing is written
# outside the benchmark's directory. Build output goes to stderr; the
# benchmark's standard output ends with its JSON result line.
set -euo pipefail

root=$(pwd)
build="$root/bench/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$root/bench" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
