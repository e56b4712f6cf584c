#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the Go toolchain writes (build
# cache, module cache, its own telemetry counters under $HOME/.config, the
# binary) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$root/bench"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -o "$build/dpurpc-ledger" .
)
cd "$root"
exec "$build/dpurpc-ledger" "$@"
