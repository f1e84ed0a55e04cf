#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs one workload.
#
#   bash perfbench/run.sh --workload workflow --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and trace files all stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
