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

# The hook-driven reference engines live in internal/oracle and in _test.go
# files only: no binary or example may link the oracle package, and no other
# non-test file may declare one of them again.
if go list -deps ./cmd/... ./examples/... | grep -qx 'needle/internal/oracle'; then
    echo "check: FAIL — a command or example depends on needle/internal/oracle" >&2
    exit 1
fi
strays=$(grep -rlE --include='*.go' --exclude='*_test.go' \
    '^(func( \([^)]*\))?|type|var|const) (NewProfiler|CombineHooks|BlockExec|HistoryTracker|FunctionalOffload)\b' \
    cmd examples internal | grep -v '^internal/oracle/' || true)
if [ -n "$strays" ]; then
    echo "check: FAIL — test oracles declared outside internal/oracle and _test.go files:" >&2
    echo "$strays" >&2
    exit 1
fi
echo "oracle ok (no binary links internal/oracle; oracles declared only there and in tests)"

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
# benchmark unnoticed. Vet and test it offline against this checkout, then
# run one short traced pass of every workload: the per-layer probe (which
# calls the pipeline's target evaluations directly) runs only there.
(
    cd needlebench
    export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
    go vet ./...
    go test ./...
    nbdir=$(mktemp -d)
    trap 'rm -rf "$nbdir"' EXIT
    go run . -workload all -seed 1 -seconds 1 -trace 1 -dir "$nbdir" > /dev/null
)
echo "nbench ok (needlebench module vets, tests, and runs a traced pass)"

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

# examples/nir/diamond.nir reaches one callee in two inlining rounds
# (directly from main and through @b); `needle -nir` must analyze it, since
# numbering the inlined bodies per round once gave both the same names.
go run ./cmd/needle -nir examples/nir/diamond.nir -args 64 -json > /dev/null
echo "inline ok (needle -nir analyzes examples/nir/diamond.nir)"

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

# Opt-in fuzz smoke: CHECK_FUZZ=1 ./scripts/check.sh runs each fuzzer
# briefly on top of its corpus: the parser/verifier/printer round trip, the
# artifact decoders, the vet analyses, and the full analysis of untrusted
# .nir as POST /v1/analyze runs it. The minimize caps keep a fuzzer from
# spending the smoke's time minimizing one interesting input.
if [ "${CHECK_FUZZ:-0}" = "1" ]; then
    go test -run '^$' -fuzz '^FuzzParseVerify$' -fuzztime 10s ./internal/ir
    go test -run '^$' -fuzz '^FuzzArtifactDecode$' -fuzztime 10s -fuzzminimizetime 2s ./internal/pipeline
    go test -run '^$' -fuzz '^FuzzVetAnalyses$' -fuzztime 10s -fuzzminimizetime 2s ./internal/vet
    go test -run '^$' -fuzz '^FuzzAnalyze$' -fuzztime 10s -fuzzminimizetime 2s ./internal/serve
    echo "fuzz   ok (FuzzParseVerify, FuzzArtifactDecode, FuzzVetAnalyses, FuzzAnalyze, 10s smokes)"
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
# run's — the persistent store must be invisible in the results. A third
# process then fills a second store directory from scratch, and the two
# directories must hold the same files with the same bytes: an artifact
# always encodes to the same payload. The default store must hold exactly
# one profile and one select artifact per workload and nothing else: inline
# and frame are recomputed, never persisted. Last, the -O sweep runs cold
# then warm against a store of its own, and the two outputs must match too:
# the warm run rehydrates every stored Opt artifact instead of optimizing,
# and that store holds one opt, profile and select artifact per workload.
if [ "${CHECK_CACHE:-0}" = "1" ]; then
    cachedir=$(mktemp -d)
    trap 'rm -rf "$cachedir"' EXIT
    go run ./cmd/needle -json -n 2000 -cache-dir "$cachedir/store" > "$cachedir/cold.json"
    go run ./cmd/needle -json -n 2000 -cache-dir "$cachedir/store" > "$cachedir/warm.json"
    if ! cmp -s "$cachedir/cold.json" "$cachedir/warm.json"; then
        echo "check: FAIL — warm-start sweep output differs from cold run" >&2
        exit 1
    fi
    go run ./cmd/needle -json -n 2000 -cache-dir "$cachedir/store2" > /dev/null
    (cd "$cachedir/store" && ls) > "$cachedir/files"
    if ! (cd "$cachedir/store2" && ls) | cmp -s - "$cachedir/files"; then
        echo "check: FAIL — two fills of an artifact store hold different files" >&2
        exit 1
    fi
    while read -r f; do
        if ! cmp -s "$cachedir/store/$f" "$cachedir/store2/$f"; then
            echo "check: FAIL — artifact $f differs between two fills of a store" >&2
            exit 1
        fi
    done < "$cachedir/files"
    go run ./cmd/needle -O -json -n 2000 -cache-dir "$cachedir/store-O" > "$cachedir/cold-O.json"
    go run ./cmd/needle -O -json -n 2000 -cache-dir "$cachedir/store-O" > "$cachedir/warm-O.json"
    if ! cmp -s "$cachedir/cold-O.json" "$cachedir/warm-O.json"; then
        echo "check: FAIL — warm-start -O sweep output differs from cold run" >&2
        exit 1
    fi
    # inventory DIR STAGE... fails unless DIR holds exactly 29 artifacts of
    # each named stage and no other file.
    inventory() {
        dir=$1
        shift
        for stage in "$@"; do
            n=$(find "$dir" -name "$stage-*.art" | wc -l)
            if [ "$n" -ne 29 ]; then
                echo "check: FAIL — $dir holds $n $stage artifacts, want 29" >&2
                exit 1
            fi
        done
        total=$(find "$dir" -type f | wc -l)
        if [ "$total" -ne $((29 * $#)) ]; then
            echo "check: FAIL — $dir holds $total files, want only 29 each of: $*" >&2
            exit 1
        fi
    }
    inventory "$cachedir/store" profile select
    inventory "$cachedir/store-O" opt profile select
    echo "cache  ok (warm-start sweeps byte-identical, with and without -O; two fills byte-identical; stores hold only opt/profile/select)"
fi

# Opt-in service smoke test: CHECK_SERVE=1 ./scripts/check.sh builds
# needled, starts it against a temporary cache dir, waits for /healthz,
# and fails unless POST /v1/analyze and POST /v1/vet respond with exactly
# the bytes `needle -json -workload` and `needle -vet -json -workload`
# print for the same workload and config, and GET /v1/analyze answers 405
# with a JSON error object.
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
    curl -fsS -d '{"workload":"456.hmmer"}' "http://$addr/v1/vet" > "$servedir/served-vet.json"
    go run ./cmd/needle -vet -workload 456.hmmer -json > "$servedir/cli-vet.json"
    if ! cmp -s "$servedir/served-vet.json" "$servedir/cli-vet.json"; then
        echo "check: FAIL — /v1/vet response differs from needle -vet -json" >&2
        exit 1
    fi
    status=$(curl -sS -o "$servedir/get.json" -w '%{http_code}' "http://$addr/v1/analyze")
    if [ "$status" != "405" ] || ! grep -q '^{"error":".*"}$' "$servedir/get.json"; then
        echo "check: FAIL — GET /v1/analyze answered $status, want 405 with an error object:" >&2
        cat "$servedir/get.json" >&2
        exit 1
    fi
    kill "$needled_pid"
    wait "$needled_pid" 2>/dev/null || true
    needled_pid=""
    echo "serve  ok (needled analyze and vet byte-identical to CLI; GET answers 405)"
fi
