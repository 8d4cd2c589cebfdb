#!/usr/bin/env bash
# Builds the benchmark and shufflenetd from the checkout's source and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sortlib|lab|daemon --seed N --seconds S --trace 0|1
#
# Everything the build and the run leave behind goes to .bench_build/
# in the checkout: the Go build cache, the binaries and the traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry
# files in the checkout too; GOFLAGS and GOWORK are cleared so that no
# setting from outside the checkout changes the build.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/shufflenetd" ./cmd/shufflenetd >&2
exec "$out/bin/perfbench" --root "$root" "$@"
