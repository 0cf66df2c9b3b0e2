#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload mux-storm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# span files of traced runs all go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
