#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given flags, for example:
#
#	bash perfbench/run.sh --workload spear100 --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (binary, build cache, temporary files,
# its config and telemetry directory) stays under .bench_build/ at the root
# of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
