#!/usr/bin/env bash
# Builds the fleet (rebalanced, rebalrouter) and the benchmark from the
# source tree, then runs one benchmark invocation. Run from the
# repository root:
#
#   bash fleetbench/run.sh --workload hit-routed --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and log stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$PWD
for src in go.mod cmd/rebalanced cmd/rebalrouter fleetbench/go.mod; do
	if [ ! -e "$root/$src" ]; then
		echo "fleetbench: $src not found; run from the root of a source checkout" >&2
		exit 2
	fi
done

out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/xdg"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/xdg \
	GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOPROXY=off GOTOOLCHAIN=local

# With telemetry on (the default "local" mode), the go command starts a
# detached sidecar process once a day that can outlive this script.
# "go telemetry off" itself starts none.
go telemetry off
go build -o "$out/bin/" ./cmd/rebalanced ./cmd/rebalrouter
go -C fleetbench build -o "$out/bin/fleetbench" .
exec "$out/bin/fleetbench" -bin "$out/bin" "$@"
