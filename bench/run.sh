#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#
#	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1|FILE [--out FILE]
#	bash bench/run.sh compare A.json B.json
#
# The Go build cache, module cache, temporary files and the binary live in
# .bench_build/ under the working directory, so nothing is written outside
# the checkout and nothing is fetched from the network.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/scooterbench" .)
exec "$build/scooterbench" "$@"
