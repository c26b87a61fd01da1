#!/usr/bin/env bash
# Builds the end-to-end benchmark into .bench_build at the repository
# root and runs it there; arguments pass through (see README.md).
# Every Go cache, temporary and configuration file stays inside
# .bench_build; GOFLAGS and go env settings from outside do not apply.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmarks/e2e" && go build -o "$out/bin/e2e" .)
cd "$root"
exec "$out/bin/e2e" "$@"
