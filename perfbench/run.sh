#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it; every argument passes through (see main.go):
#
#   bash perfbench/run.sh --workload native-plummer --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the stores and the trace files all go
# under .bench_build/ at the checkout root, and nowhere else.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
