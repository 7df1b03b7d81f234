#!/usr/bin/env bash
# Builds the RPC benchmark from this checkout's sources and runs it:
#
#   bash rpcbench/run.sh --workload bulk_write --seed 1 --seconds 40 --trace 0
#
# Everything a run writes (Go build cache, temporary files, the go
# command's telemetry, binary, the traced run's span log) stays under
# .bench_build/ at the checkout root.
# The last line of standard output is the JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go build -C "$root/rpcbench" -o "$out/rpcbench" .
exec "$out/rpcbench" -spans-dir "$out" "$@"
