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
# It also records, ungated, eight BenchmarkStage rows on 186.crafty,
# 458.sjeng and 164.gzip, as ns/op, allocs/op and B/op per workload: inline and
# frame (the two stages a warm run recomputes rather than decodes, each
# computed on a fresh analysis manager), the opt-decode, profile-decode and
# select-decode rows (each the stage's full codec decode from its stored
# bytes, as on a warm disk hit: payload read, then the function built from
# arenas and verified, path-trace rehydration or braid rebuilds), select
# (the Select stage computed cold, as on a miss), target (the Target stage
# alone, upstream artifacts served from a pre-warmed Cache) and capture
# (sim.Capture on the Inline artifact's function: the Profile stage's cold
# compute), plus profile-decode on 197.parser, the workload whose path
# trace has the shortest runs of one path. Beside them it records, also
# ungated, the four BenchmarkIngest
# rows: parse (ir.Parse), load (program.Load), digest (Program.Digest) and
# serve (one in-process vet + analyze op on a one-worker needled, every
# stage a miss) over irgen programs of the shape needled is sent in the
# benchmark's serve-nir-cold workload. Also ungated, the fourteen BenchmarkAnalysis rows
# time the per-function analyses needled recomputes for every program
# (ballarus, pdom, cdeps, liveness, sccp, memdep, plan, characterize,
# dominators, loops) and the Target build under them (braids, frame,
# schedule, and candidates, all of sim.NewCandidates) on inlined programs
# of that same shape.
#
# A second, ungated run records the one stage an analysis splits across
# idle Ps, BenchmarkStage/profile-decode/186.crafty (rankCounts' two
# walks), at -cpu 1 and at -cpu 2, so the trajectory shows both the
# split's gain and what it costs when no second P is free. A third, also
# ungated, records BenchmarkStage/replay/{164.gzip,186.crafty,197.parser}
# (Candidates.Replay alone) at -cpu 1. Both run each row 10 times, the split rows at 20 iterations
# and the replay rows at 200, and record its median ns/op with the
# interquartile range beside it: one run's spread is wider than the effects
# these rows track.
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

benches='^(BenchmarkSweep|BenchmarkSweepWarmStart|BenchmarkCapture|BenchmarkInterpreter|BenchmarkPathProfiling|BenchmarkPathDecode|BenchmarkOOOModel|BenchmarkAblationPredictor|BenchmarkVet|BenchmarkStage|BenchmarkIngest|BenchmarkAnalysis)$'
benchtime="${BENCH_TIME:-5x}"

echo "running sweep benchmarks (benchtime $benchtime)..."
out=$(go test -run '^$' -bench "$benches" -benchtime "$benchtime" -benchmem .)
echo "$out"
split_out=$(go test -run '^$' -bench '^BenchmarkStage$/^profile-decode$/^186\.crafty$' \
    -benchtime 20x -count 10 -benchmem -cpu 1,2 .)
echo "$split_out"
replay_out=$(go test -run '^$' -bench '^BenchmarkStage$/^replay$/' -benchtime 200x -count 10 -benchmem -cpu 1 .)
echo "$replay_out"

# Benchmark lines look like:  BenchmarkSweep[-N]  5  132523001 ns/op [...]
# Sub-benchmark names pass through verbatim (e.g. BenchmarkAblationPredictor/cached).
ns_of() {
    echo "$out" | awk -v name="$1" '$1 ~ "^"name"(-[0-9]+)?$" { print $3; exit }'
}
# per_op NAME UNIT: NAME's value before UNIT (allocs/op, B/op) on $out.
per_op() {
    echo "$out" | awk -v name="$1" -v unit="$2" '$1 ~ "^"name"(-[0-9]+)?$" {
        for (i = 4; i <= NF; i++) if ($i == unit) { print $(i-1); exit }
    }'
}
# spread_of OUT NAME UNIT: the median and interquartile range of the values
# before UNIT on OUT's lines named exactly NAME (at -cpu 1 a name has no -N
# suffix), as "median iqr", quartiles interpolated between order statistics.
spread_of() {
    echo "$1" | awk -v name="$2" -v unit="$3" '$1 == name {
        for (i = 4; i <= NF; i++) if ($i == unit) print $(i-1)
    }' | sort -g | awk '
        function q(p,   h, i) {
            h = (NR - 1) * p + 1
            i = int(h)
            return i < NR ? v[i] + (h - i) * (v[i+1] - v[i]) : v[NR]
        }
        { v[NR] = $1 }
        END { if (NR > 0) printf "%.0f %.0f\n", q(0.5), q(0.75) - q(0.25) }'
}
# spread_json OUT NAME: NAME's ns/op spread and its median allocs/op and
# B/op on OUT as a JSON object, or nothing when OUT has no such line.
spread_json() {
    ns=$(spread_of "$1" "$2" ns/op)
    [ -z "$ns" ] && return
    allocs=$(spread_of "$1" "$2" allocs/op)
    bytes=$(spread_of "$1" "$2" B/op)
    printf '{"ns_per_op": %s, "ns_per_op_iqr": %s, "allocs_per_op": %s, "bytes_per_op": %s, "runs": 10}' \
        "${ns% *}" "${ns#* }" "${allocs% *}" "${bytes% *}"
}
stages=""
for layer in inline opt-decode profile-decode select-decode select frame target capture; do
    for w in 186.crafty 458.sjeng 164.gzip; do
        stages="$stages BenchmarkStage/$layer/$w"
    done
done
stages="$stages BenchmarkStage/profile-decode/197.parser"
for step in parse load digest serve; do
    stages="$stages BenchmarkIngest/$step"
done
for a in ballarus pdom cdeps liveness sccp memdep plan characterize dominators loops braids frame schedule candidates; do
    stages="$stages BenchmarkAnalysis/$a"
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
        printf '    "%s": {"ns_per_op": %s, "allocs_per_op": %s, "bytes_per_op": %s}' \
            "$b" "$ns" "$(per_op "$b" allocs/op)" "$(per_op "$b" B/op)"
    done
    echo ""
    echo "  },"
    echo "  \"split_stages\": {"
    first=1
    b=BenchmarkStage/profile-decode/186.crafty
    for cpu in 1 2; do
        name=$b
        [ "$cpu" = 1 ] || name="$b-$cpu"
        row=$(spread_json "$split_out" "$name")
        [ -z "$row" ] && continue
        [ "$first" = 1 ] || echo ","
        first=0
        printf '    "%s -cpu %s": %s' "$b" "$cpu" "$row"
    done
    echo ""
    echo "  },"
    echo "  \"replay_stages\": {"
    first=1
    for b in BenchmarkStage/replay/164.gzip BenchmarkStage/replay/186.crafty BenchmarkStage/replay/197.parser; do
        row=$(spread_json "$replay_out" "$b")
        [ -z "$row" ] && continue
        [ "$first" = 1 ] || echo ","
        first=0
        printf '    "%s -cpu 1": %s' "$b" "$row"
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
