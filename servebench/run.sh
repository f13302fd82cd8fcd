#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it with
# the given arguments, e.g. from the repository root:
#
#   bash servebench/run.sh --workload rush-closed --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, Go config) stays under
# .bench_build/ in the directory it is started from. The build needs the
# repository's own module one directory above servebench/, so the script
# fails before printing a result when that is missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/servebench" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
