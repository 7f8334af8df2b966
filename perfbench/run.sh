#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload admit-batch --seed 1 --seconds 10 --trace 0
#
# Every build artifact (compiled binary, Go build cache, temp files) stays in
# .bench_build under the current directory, so the run writes nothing outside
# the checkout it is started from.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
