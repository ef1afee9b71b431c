#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload paper-all --seed 1 --seconds 40 --trace 0
# Every build output and scratch file stays under .bench_build in the root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its env file and telemetry under the config dir.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
