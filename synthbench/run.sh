#!/usr/bin/env bash
# Builds the synthesizer benchmark from the source in this checkout and runs
# one workload:
#
#   bash synthbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build products, the Go caches and trace files stay under .bench_build/ in
# the checkout root. The last line of standard output is the JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS= GOPROXY=off
(cd "$root/synthbench" && go build -o "$out/synthbench" .) >&2
exec "$out/synthbench" -root "$root" "$@"
