#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root, then runs it with the given arguments. Run from the repository root:
#
#	bash bench/run.sh --workload fig2-contig --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the go command's own state
# (HOME, its configuration and telemetry directories) live in
# .bench_build/ too, so a run reads and writes nothing outside the
# checkout but the Go toolchain.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/gopath" GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
