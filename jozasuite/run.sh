#!/usr/bin/env bash
# Builds the jozasuite benchmark from source and runs it, passing every
# argument through:
#
#   bash jozasuite/run.sh --workload wp-read --seed 42 --seconds 10 --trace 0
#
# The build, its Go caches and the toolchain's own state all live under
# .bench_build/ at the repository root, so a run reads and writes nothing
# outside the checkout. The suite is a module of its own that builds the
# repository's packages through `replace joza => ../`; without them the
# build fails and so does the run.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/jozasuite" && go build -o "$out/jozasuite" .)
exec "$out/jozasuite" "$@"
