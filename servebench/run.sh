#!/usr/bin/env bash
# run.sh builds servebench from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash servebench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, telemetry)
# stays under .bench_build at the checkout's root. The benchmark is its own
# module (servebench/go.mod) that reaches the repository's packages through a
# replace directive, so the repository's `go build ./...` and `go test ./...`
# do not include it; `cd servebench && go test ./...` runs its tests.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
