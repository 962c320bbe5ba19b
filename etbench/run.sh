#!/usr/bin/env bash
# Builds etbench from the sources of this checkout and runs it with the given
# arguments, e.g.
#
#   bash etbench/run.sh --workload tutor-py --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every file the Go toolchain writes
# (build cache, module cache, temporary files, the binary) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=-buildvcs=false

(cd "$src" && go build -o "$out/etbench" .) >&2
exec "$out/etbench" "$@"
