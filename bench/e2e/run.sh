#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source, then run it
# with the arguments given. Call it from the root of a checkout — the
# benchmark is a package of the repository's module, so the build fails
# (and no result is printed) where the repository is missing. Everything
# the Go toolchain writes is kept under .bench_build/ in that directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

# With a fresh config directory the go command is in telemetry mode "local"
# and forks a detached `go` child (the weekly report builder) that outlives
# it — a process left running after the benchmark has exited. Mode "off"
# in this checkout's own config directory stops the fork; nothing outside
# the checkout is read or written.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/e2e" ./bench/e2e

exec "$build/e2e" "$@"
