#!/usr/bin/env bash
# Builds the end-to-end DiffProv benchmark from the checkout's sources and
# runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload stanford-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch stores all
# live under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

# Keep the toolchain's caches, temporary files and settings in the checkout.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -out "$out" "$@"
