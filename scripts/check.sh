#!/bin/sh
# check.sh — the repo's full verification gate. Run before every commit:
#
#   ./scripts/check.sh        (or: make check)
#
# Fails on unformatted files, vet diagnostics, build errors, any test
# failure (the suite runs under the race detector to exercise the parallel
# analysis harness), or an example whose output drifts from its
# expected.txt.
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l -s . 2>&1)
if [ -n "$unformatted" ]; then
    echo "gofmt: unformatted (or unsimplified) files:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "gofmt  ok"

go vet ./...
echo "vet    ok"

# staticcheck (honnef.co/go/tools, pinned: 2025.1 or newer) when the binary
# is on PATH; skipped with a warning otherwise so the gate stays runnable on
# machines that cannot install tools. Install with:
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1
if command -v staticcheck > /dev/null 2>&1; then
    staticcheck ./...
    echo "static ok (staticcheck $(staticcheck -version 2> /dev/null | head -n 1))"
else
    echo "static SKIPPED — staticcheck not on PATH (go install honnef.co/go/tools/cmd/staticcheck@2025.1)" >&2
fi

go build ./...
echo "build  ok"

# The service stack first: the serving layer and the pipeline/core API it
# fronts are the most concurrency-sensitive packages (worker pools,
# singleflight, cancellation), so their race-detector run fails fast and
# in isolation before the long full-suite run.
go test -race ./internal/serve ./internal/pipeline ./internal/core
echo "serve  ok (serve/pipeline/core under -race)"

# Everything else (the three packages above are excluded so they don't run
# twice).
go test -race $(go list ./... | grep -vE '^needle/internal/(serve|pipeline|core)$')
echo "tests  ok"

# needlebench/ is its own module (it replaces needle with ../), so the root
# `go test ./...` never builds it: an internal API change could break the
# benchmark unnoticed. Vet and test it offline against this checkout.
(
    cd needlebench
    export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
    go vet ./...
    go test ./...
)
echo "nbench ok (needlebench module vets and tests)"

# Every checked-in .nir program must parse and verify: the examples are
# the documented entry points for `needle -nir` and the ir testdata seeds
# the parser fuzzer, so a malformed file is a broken contract either way.
nir_bin=$(mktemp)
go build -o "$nir_bin" ./cmd/nir
find examples internal/ir/testdata -name '*.nir' | sort | while read -r f; do
    "$nir_bin" verify "$f" > /dev/null || {
        echo "check: FAIL — $f does not verify" >&2
        rm -f "$nir_bin"
        exit 1
    }
done
rm -f "$nir_bin"
echo "nir    ok (all checked-in .nir programs verify)"

# Every example prints a deterministic report; it must match the checked-in
# examples/<name>/expected.txt byte for byte. examples/inlining profiles a
# function that still makes calls, so this also pins the compiled plan's
# call path end to end.
ex_out=$(mktemp)
for main in examples/*/main.go; do
    dir=$(dirname "$main")
    if ! go run "./$dir" > "$ex_out"; then
        echo "check: FAIL — $dir did not run" >&2
        rm -f "$ex_out"
        exit 1
    fi
    if ! cmp -s "$ex_out" "$dir/expected.txt"; then
        echo "check: FAIL — $dir output differs from $dir/expected.txt" >&2
        diff "$dir/expected.txt" "$ex_out" >&2 || true
        rm -f "$ex_out"
        exit 1
    fi
done
rm -f "$ex_out"
echo "exmpl  ok (every example matches its expected.txt)"

# Opt-in fuzz smoke: CHECK_FUZZ=1 ./scripts/check.sh runs the parser/
# verifier/printer round-trip fuzzer briefly on top of its corpus.
if [ "${CHECK_FUZZ:-0}" = "1" ]; then
    go test -run '^$' -fuzz '^FuzzParseVerify$' -fuzztime 10s ./internal/ir
    echo "fuzz   ok (FuzzParseVerify, 10s smoke)"
fi

# Opt-in performance gate: CHECK_BENCH=1 ./scripts/check.sh also runs the
# sweep benchmarks and fails on a >15% BenchmarkSweep regression.
if [ "${CHECK_BENCH:-0}" = "1" ]; then
    ./scripts/bench.sh
    echo "bench  ok"
fi

# Opt-in persistent-cache differential: CHECK_CACHE=1 ./scripts/check.sh
# runs the full sweep twice against a temporary artifact store and fails
# unless the warm (second) run's JSON output is byte-identical to the cold
# run's — the persistent store must be invisible in the results.
if [ "${CHECK_CACHE:-0}" = "1" ]; then
    cachedir=$(mktemp -d)
    trap 'rm -rf "$cachedir"' EXIT
    go run ./cmd/needle -json -n 2000 -cache-dir "$cachedir/store" > "$cachedir/cold.json"
    go run ./cmd/needle -json -n 2000 -cache-dir "$cachedir/store" > "$cachedir/warm.json"
    if ! cmp -s "$cachedir/cold.json" "$cachedir/warm.json"; then
        echo "check: FAIL — warm-start sweep output differs from cold run" >&2
        exit 1
    fi
    echo "cache  ok (warm-start sweep byte-identical)"
fi

# Opt-in service smoke test: CHECK_SERVE=1 ./scripts/check.sh builds
# needled, starts it against a temporary cache dir, waits for /healthz,
# and fails unless POST /v1/analyze responds with exactly the bytes
# `needle -json -workload` prints for the same workload and config.
if [ "${CHECK_SERVE:-0}" = "1" ]; then
    servedir=$(mktemp -d)
    # This trap replaces the CHECK_CACHE one, so it must clean up both.
    trap 'rm -rf "$servedir" "${cachedir:-}"; [ -n "${needled_pid:-}" ] && kill "$needled_pid" 2>/dev/null' EXIT
    go build -o "$servedir/needled" ./cmd/needled
    addr="127.0.0.1:8957"
    "$servedir/needled" -addr "$addr" -cache-dir "$servedir/store" 2> "$servedir/needled.log" &
    needled_pid=$!
    for _ in $(seq 1 50); do
        if curl -fsS "http://$addr/healthz" > /dev/null 2>&1; then
            break
        fi
        sleep 0.2
    done
    curl -fsS "http://$addr/healthz" > /dev/null || {
        echo "check: FAIL — needled did not become healthy" >&2
        cat "$servedir/needled.log" >&2
        exit 1
    }
    curl -fsS -d '{"workload":"456.hmmer","n":2000}' "http://$addr/v1/analyze" > "$servedir/served.json"
    go run ./cmd/needle -json -workload 456.hmmer -n 2000 > "$servedir/cli.json"
    if ! cmp -s "$servedir/served.json" "$servedir/cli.json"; then
        echo "check: FAIL — /v1/analyze response differs from needle -json" >&2
        exit 1
    fi
    kill "$needled_pid"
    wait "$needled_pid" 2>/dev/null || true
    needled_pid=""
    echo "serve  ok (needled analyze byte-identical to CLI)"
fi
