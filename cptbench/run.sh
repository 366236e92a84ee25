#!/usr/bin/env bash
# Builds cptbench from source inside the checkout and runs it from the
# checkout root. Everything the Go toolchain writes (build cache, module
# cache, telemetry) is kept under .bench_build/ so a run touches nothing
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/cptbench" build -o "$build/cptbench" . >&2
cd "$root"
exec "$build/cptbench" "$@"
