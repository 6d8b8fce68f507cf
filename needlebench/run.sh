#!/usr/bin/env bash
# Builds needlebench from this checkout's source and runs one workload.
#
#   bash needlebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it writes (the Go build cache,
# the binary, disk stores, span dumps) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
work=$out/needlebench
mkdir -p "$work/tmp" "$work/config"

export GOCACHE=$work/gocache GOMODCACHE=$work/gomodcache GOTMPDIR=$work/tmp TMPDIR=$work/tmp \
	XDG_CONFIG_HOME=$work/config GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$work/needlebench" .) >&2
exec "$work/needlebench" -dir "$work" "$@"
