#!/bin/sh
# bench.sh — the repo's performance gate. Runs the sweep benchmarks, writes
# the results to BENCH_<date>.json (the perf-trajectory artifact; a later
# run on the same day writes BENCH_<date>-2.json and so on), and fails
# if either gate regresses against the checked-in baseline in
# scripts/bench_baseline.json:
#
#   - BenchmarkSweep — the end-to-end 29-workload profiling+evaluation
#     sweep — more than 15% slower than sweep_ns_per_op;
#   - BenchmarkCapture — the system-simulator capture alone (compiled
#     interpreter fast path + block-batched timing packets) — more than 15%
#     slower than capture_ns_per_op;
#   - BenchmarkAblationPredictor/cached — the downstream-knob ablation sweep
#     through the shared artifact cache — more than 15% slower than
#     ablation_cached_ns_per_op, or less than 1.5x faster than its own
#     /fresh variant (the staged pipeline's artifact-reuse win);
#   - BenchmarkSweepWarmStart/warm — the full sweep warm-started from a
#     persistent artifact store (fresh memory tier, as a new process would
#     see it) — more than 15% slower than warmstart_warm_ns_per_op, or less
#     than 1.5x faster than its own /cold variant (the disk tier's win);
#   - BenchmarkVet — the static-analysis diagnostic suite over the whole
#     workload set — more than 15% slower than vet_ns_per_op; additionally
#     BenchmarkSweep gets a tight 2% gate against sweep_ns_per_op, pinning
#     that the lazily-computed vet analyses cost a default sweep nothing.
#
# It also records, ungated, four BenchmarkStage rows on 186.crafty,
# 458.sjeng and 164.gzip, as ns/op and allocs/op per workload:
# profile-decode (sim.TraceFromData from the stored trace data under a
# fresh analysis manager, as on a warm disk hit), select-decode
# (region.BraidFromData for every stored braid), target (the Target
# stage alone, upstream artifacts served from a pre-warmed Cache) and
# capture (sim.Capture on the Inline artifact's function).
#
#   ./scripts/bench.sh            (or: make bench)
#   BENCH_TIME=10x ./scripts/bench.sh   # more iterations, less noise
#   BENCH_TRACE=trace.json ./scripts/bench.sh
#       also runs the needle CLI's -bench-json sweep with observability on
#       and writes a Chrome trace timeline of it (the benchmarks themselves
#       always run with observability off, so the gate measures the no-op
#       cost the paper pipeline pays by default)
#
# To accept a new baseline after an intentional change, update
# scripts/bench_baseline.json with the sweep_ns_per_op, capture_ns_per_op,
# ablation_cached_ns_per_op, warmstart_warm_ns_per_op, and vet_ns_per_op
# this script reports.
set -eu

cd "$(dirname "$0")/.."

benches='^(BenchmarkSweep|BenchmarkSweepWarmStart|BenchmarkCapture|BenchmarkInterpreter|BenchmarkPathProfiling|BenchmarkPathDecode|BenchmarkOOOModel|BenchmarkAblationPredictor|BenchmarkVet|BenchmarkStage)$'
benchtime="${BENCH_TIME:-5x}"

echo "running sweep benchmarks (benchtime $benchtime)..."
out=$(go test -run '^$' -bench "$benches" -benchtime "$benchtime" -benchmem .)
echo "$out"

# Benchmark lines look like:  BenchmarkSweep[-N]  5  132523001 ns/op [...]
# Sub-benchmark names pass through verbatim (e.g. BenchmarkAblationPredictor/cached).
ns_of() {
    echo "$out" | awk -v name="$1" '$1 ~ "^"name"(-[0-9]+)?$" { print $3; exit }'
}
allocs_of() {
    echo "$out" | awk -v name="$1" '$1 ~ "^"name"(-[0-9]+)?$" {
        for (i = 4; i <= NF; i++) if ($i == "allocs/op") { print $(i-1); exit }
    }'
}
stages=""
for layer in profile-decode select-decode target capture; do
    for w in 186.crafty 458.sjeng 164.gzip; do
        stages="$stages BenchmarkStage/$layer/$w"
    done
done

sweep=$(ns_of BenchmarkSweep)
if [ -z "$sweep" ]; then
    echo "bench: BenchmarkSweep produced no result" >&2
    exit 1
fi
cap=$(ns_of BenchmarkCapture)
if [ -z "$cap" ]; then
    echo "bench: BenchmarkCapture produced no result" >&2
    exit 1
fi
abl_fresh=$(ns_of 'BenchmarkAblationPredictor/fresh')
abl_cached=$(ns_of 'BenchmarkAblationPredictor/cached')
if [ -z "$abl_fresh" ] || [ -z "$abl_cached" ]; then
    echo "bench: BenchmarkAblationPredictor produced no result" >&2
    exit 1
fi
ws_cold=$(ns_of 'BenchmarkSweepWarmStart/cold')
ws_warm=$(ns_of 'BenchmarkSweepWarmStart/warm')
if [ -z "$ws_cold" ] || [ -z "$ws_warm" ]; then
    echo "bench: BenchmarkSweepWarmStart produced no result" >&2
    exit 1
fi
vet=$(ns_of BenchmarkVet)
if [ -z "$vet" ]; then
    echo "bench: BenchmarkVet produced no result" >&2
    exit 1
fi

date=$(date +%Y-%m-%d)
file="BENCH_${date}.json"
# Never overwrite an earlier record of the same day: number later ones.
i=2
while [ -e "$file" ]; do
    file="BENCH_${date}-${i}.json"
    i=$((i + 1))
done
{
    echo "{"
    echo "  \"date\": \"${date}\","
    echo "  \"go\": \"$(go env GOVERSION)\","
    echo "  \"benchtime\": \"${benchtime}\","
    echo "  \"sweep_ns_per_op\": ${sweep},"
    echo "  \"capture_ns_per_op\": ${cap},"
    echo "  \"ablation_fresh_ns_per_op\": ${abl_fresh},"
    echo "  \"ablation_cached_ns_per_op\": ${abl_cached},"
    echo "  \"warmstart_cold_ns_per_op\": ${ws_cold},"
    echo "  \"warmstart_warm_ns_per_op\": ${ws_warm},"
    echo "  \"vet_ns_per_op\": ${vet},"
    echo "  \"benchmarks\": {"
    first=1
    for b in BenchmarkSweep BenchmarkCapture BenchmarkInterpreter BenchmarkPathProfiling BenchmarkPathDecode BenchmarkOOOModel \
             BenchmarkAblationPredictor/fresh BenchmarkAblationPredictor/cached \
             BenchmarkSweepWarmStart/cold BenchmarkSweepWarmStart/warm BenchmarkVet; do
        ns=$(ns_of "$b")
        [ -z "$ns" ] && continue
        [ "$first" = 1 ] || echo ","
        first=0
        printf '    "%s": %s' "$b" "$ns"
    done
    echo ""
    echo "  },"
    echo "  \"stages\": {"
    first=1
    for b in $stages; do
        ns=$(ns_of "$b")
        [ -z "$ns" ] && continue
        [ "$first" = 1 ] || echo ","
        first=0
        printf '    "%s": {"ns_per_op": %s, "allocs_per_op": %s}' "$b" "$ns" "$(allocs_of "$b")"
    done
    echo ""
    echo "  }"
    echo "}"
} > "$file"
echo "wrote $file"

# Optional observability artifact: a Chrome trace of the CLI's bench sweep.
if [ -n "${BENCH_TRACE:-}" ]; then
    echo "tracing bench sweep to ${BENCH_TRACE}..."
    go run ./cmd/needle -bench-json -trace "$BENCH_TRACE" > /dev/null
fi

# Reuse gate: the cached ablation sweep must beat the fresh one by >= 1.5x,
# independent of any baseline — this pins the artifact-cache win itself.
echo "AblationPredictor: fresh ${abl_fresh} ns/op, cached ${abl_cached} ns/op"
awk -v fresh="$abl_fresh" -v cached="$abl_cached" 'BEGIN {
    ratio = fresh / cached
    if (ratio < 1.5) {
        printf "bench: FAIL — cached ablation sweep only %.2fx faster than fresh (need >= 1.5x)\n", ratio
        exit 1
    }
    printf "bench: ok — artifact reuse %.1fx faster than fresh\n", ratio
}'

# Warm-start gate: a sweep warm-started from the persistent store must beat
# the cold (compute + persist) sweep by >= 1.5x — the disk tier's win.
echo "SweepWarmStart: cold ${ws_cold} ns/op, warm ${ws_warm} ns/op"
awk -v cold="$ws_cold" -v warm="$ws_warm" 'BEGIN {
    ratio = cold / warm
    if (ratio < 1.5) {
        printf "bench: FAIL — warm-start sweep only %.2fx faster than cold (need >= 1.5x)\n", ratio
        exit 1
    }
    printf "bench: ok — persistent-store warm start %.1fx faster than cold\n", ratio
}'

baseline=scripts/bench_baseline.json
if [ ! -f "$baseline" ]; then
    echo "bench: no baseline ($baseline); skipping regression gate"
    exit 0
fi

# gate NAME CURRENT BASELINE-KEY [PCT]: fail if CURRENT is more than PCT%
# (default 15) over the baseline.
gate() {
    name=$1; cur=$2; key=$3; pct=${4:-15}
    base=$(sed -n 's/.*"'"$key"'": *\([0-9][0-9]*\).*/\1/p' "$baseline" | head -n 1)
    if [ -z "$base" ]; then
        echo "bench: baseline $baseline has no $key" >&2
        exit 1
    fi
    echo "$name: ${cur} ns/op (baseline ${base} ns/op, gate ${pct}%)"
    awk -v cur="$cur" -v base="$base" -v name="$name" -v pct="$pct" 'BEGIN {
        limit = base * (1 + pct / 100)
        if (cur > limit) {
            printf "bench: FAIL — %s regressed %.1f%% (>%d%% over baseline)\n", name, (cur/base - 1) * 100, pct
            exit 1
        }
        if (cur < base) printf "bench: ok — %s %.1f%% faster than baseline\n", name, (1 - cur/base) * 100
        else            printf "bench: ok — %s within noise (%.1f%% over baseline)\n", name, (cur/base - 1) * 100
    }'
}

gate sweep "$sweep" sweep_ns_per_op
gate capture "$cap" capture_ns_per_op
gate ablation-cached "$abl_cached" ablation_cached_ns_per_op
gate warmstart-warm "$ws_warm" warmstart_warm_ns_per_op
gate vet "$vet" vet_ns_per_op

# Vet-overhead gate: the semantic analyses are registered pm.Kinds that a
# default (-O off) sweep never requests, so their existence must be close to
# free — the sweep gets a 2% gate against the same baseline, far tighter
# than the generic 15% regression gate above.
gate sweep-vet-overhead "$sweep" sweep_ns_per_op 2
