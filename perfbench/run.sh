#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and toolchain config file stays under
# .bench_build/ in the checkout; the toolchain is used as installed,
# without downloads.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
(
	cd perfbench
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" -root "$root" "$@"
