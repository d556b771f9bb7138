#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload locate-zipf --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the span dumps go to $CARGO_TARGET_DIR
# (default .bench_build), relative to the repository root.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
# Every file the Go toolchain writes (build cache, temporaries, module and
# telemetry directories) stays under $out.
export GOCACHE=$out/go-cache GOTMPDIR=$out/go-tmp GOPATH=$out/go-path XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
