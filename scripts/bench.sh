#!/usr/bin/env bash
# Runs the serial-vs-parallel sub-benchmarks (XGB fit/predict, FP-Growth
# mining, the experiments harness) and records the results as
# BENCH_PR1.json at the repo root, tagged with the core count so speedup
# numbers are read against the hardware that produced them.
#
# It then runs the ingest-path overhead benchmarks (sFlow decode + registry
# labeling + balancing, with and without the observability registry
# attached) and records BENCH_PR2.json. The ingest pair always runs at
# -benchtime 2s -count 5 and keeps the minimum per variant: overhead is a
# difference of medians-of-noise otherwise, and min-of-N is the stable
# estimator on shared hardware.
#
# Usage: scripts/bench.sh [-benchtime 1x] [-count 1] [-only pr1,pr6] [-summary]
#
# -only runs a subset of the per-PR sections (pr1 pr2 pr3 pr4 pr5 pr6 pr7
# pr8 pr9 pr10, comma-separated); the default runs all of them. CI uses
# "-only pr6,pr7,pr8 -benchtime 1x" as a smoke test that the benchmarks
# still compile and run, without paying for stable numbers.
#
# -summary skips the benchmarks entirely and merges every BENCH_PR*.json
# at the repo root into BENCH_TRAJECTORY.json (schema bench-trajectory/v1,
# see cmd/benchsummary) so one file tracks each metric across the stacked
# PRs. The same merge also runs automatically after every section run —
# including any -only subset — so a refreshed BENCH_PRn.json can never
# leave the trajectory stale.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime=1x
count=1
only=pr1,pr2,pr3,pr4,pr5,pr6,pr7,pr8,pr9,pr10
summary=0
while [ $# -gt 0 ]; do
    case "$1" in
    -benchtime) benchtime=$2; shift 2 ;;
    -count) count=$2; shift 2 ;;
    -only) only=$2; shift 2 ;;
    -summary) summary=1; shift ;;
    *) echo "usage: $0 [-benchtime DUR] [-count N] [-only pr1,pr6] [-summary]" >&2; exit 2 ;;
    esac
done

if [ "$summary" = 1 ]; then
    go run ./cmd/benchsummary -o BENCH_TRAJECTORY.json BENCH_PR*.json
    echo "wrote BENCH_TRAJECTORY.json"
    exit 0
fi

want() { case ",$only," in *",$1,"*) return 0 ;; *) return 1 ;; esac }

tmp=$(mktemp)
tmp2=$(mktemp)
trap 'rm -f "$tmp" "$tmp2"' EXIT

if want pr1; then
go test -run '^$' -bench 'BenchmarkFitWorkers|BenchmarkPredictWorkers' \
    -benchtime "$benchtime" -count "$count" ./internal/ml/xgb | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkMineFrequentWorkers' \
    -benchtime "$benchtime" -count "$count" ./internal/tagging | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkHarnessWorkers' \
    -benchtime "$benchtime" -count "$count" . | tee -a "$tmp"

# Note: the ns/op comparison must not escape the slash — mawk keeps the
# backslash in "ns\/op" and the condition silently never matches.
awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n  \"benchmarks\": [\n", date, cores
    first = 1
}
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s}", $1, $3
}
END { print "\n  ]\n}" }
' "$tmp" > BENCH_PR1.json

echo "wrote BENCH_PR1.json ($(nproc) cores)"
fi

if want pr2; then
go test -run '^$' -bench 'BenchmarkIngestMetrics' \
    -benchtime 2s -count 5 ./cmd/scrubberd | tee "$tmp2"

awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^BenchmarkIngestMetrics/ && $4 == "ns/op" {
    sub(/-[0-9]+$/, "", $1)   # strip the -GOMAXPROCS suffix
    if (!($1 in best) || $3 + 0 < best[$1]) best[$1] = $3 + 0
}
END {
    off = best["BenchmarkIngestMetricsOff"]
    on = best["BenchmarkIngestMetricsOn"]
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n", date, cores
    printf "  \"ingest_ns_per_datagram\": {\"metrics_off\": %g, \"metrics_on\": %g},\n", off, on
    printf("  \"overhead_percent\": %.2f\n", off > 0 ? (on - off) / off * 100 : 0)
    print "}"
}' "$tmp2" > BENCH_PR2.json

echo "wrote BENCH_PR2.json ($(nproc) cores)"
fi

# Zero-allocation hot path (PR 3): each pair benchmarks the pre-PR
# implementation (kept as reference code in the test files) against the
# pooled/sharded/lock-free replacement, and records ns/op plus allocs/op
# into BENCH_PR3.json. Same min-of-5 estimator as the PR2 section.
tmp3=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3"' EXIT

if want pr3; then

run3() { # package, bench regex, name prefix (disambiguates cross-package names)
    go test -run '^$' -bench "$2" -benchmem -benchtime 1s -count 5 "$1" \
        | sed "s/^Benchmark/Benchmark$3/" | tee -a "$tmp3"
}
run3 ./internal/sflow 'BenchmarkDecodeInto|BenchmarkDecodeFresh' Sflow
run3 ./internal/ipfix 'BenchmarkDecodeAppend|BenchmarkDecodeFresh' Ipfix
run3 ./internal/features 'BenchmarkFlushSharded|BenchmarkFlushReference' ''
run3 ./internal/woe 'BenchmarkWoELookupSnapshot|BenchmarkWoELookupLocked' ''
run3 ./internal/netflow 'BenchmarkCodecRead(Batch)?$' ''

awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^Benchmark/ && $4 == "ns/op" && $8 == "allocs/op" {
    sub(/-[0-9]+$/, "", $1)   # strip the -GOMAXPROCS suffix
    if (!($1 in ns) || $3 + 0 < ns[$1]) { ns[$1] = $3 + 0; al[$1] = $7 + 0 }
}
function pair(label, oldn, newn, scale,    o, n, oa, na, speedup, ar) {
    o = ns[oldn]; n = ns[newn] / scale
    oa = al[oldn]; na = al[newn] / scale
    speedup = 0; if (n > 0) speedup = o / n
    # 0 -> 0 allocs is "n/a", N -> 0 is "inf", otherwise the ratio.
    if (na > 0) ar = sprintf("%.2f", oa / na)
    else if (oa > 0) ar = "\"inf\""
    else ar = "\"n/a\""
    if (!first) printf(",\n")
    first = 0
    printf("    {\"name\": \"%s\",\n", label)
    printf("     \"old\": {\"bench\": \"%s\", \"ns_per_op\": %g, \"allocs_per_op\": %g},\n", oldn, o, oa)
    printf("     \"new\": {\"bench\": \"%s\", \"ns_per_op\": %g, \"allocs_per_op\": %g},\n", newn, n, na)
    printf("     \"speedup\": %.2f, \"alloc_reduction\": %s}", speedup, ar)
}
BEGIN { first = 1 }
END {
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n", date, cores
    printf "  \"note\": \"min of 5 runs; netflow_read new numbers are per record (ReadBatch ns divided by the 256-record batch)\",\n"
    print  "  \"pairs\": ["
    pair("sflow_decode_per_datagram", "BenchmarkSflowDecodeFresh", "BenchmarkSflowDecodeInto", 1)
    pair("ipfix_decode_per_message", "BenchmarkIpfixDecodeFresh", "BenchmarkIpfixDecodeAppend", 1)
    pair("aggregate_minute_flush", "BenchmarkFlushReference", "BenchmarkFlushSharded", 1)
    pair("woe_lookup", "BenchmarkWoELookupLocked", "BenchmarkWoELookupSnapshot", 1)
    pair("netflow_read_per_record", "BenchmarkCodecRead", "BenchmarkCodecReadBatch", 256)
    print "\n  ]\n}"
}' "$tmp3" > BENCH_PR3.json

echo "wrote BENCH_PR3.json ($(nproc) cores)"
fi

# Pipeline checkpoint (the figure PR 4 never took): one SaveCheckpoint and
# one RestoreCheckpoint of what the retrain-cycle workload persists every
# round — a ~35k-record window plus the default model fitted on it — with
# the file size. Min-of-N like the other sections.
tmp4=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3" "$tmp4"' EXIT

if want pr4; then
go test -run '^$' -bench 'BenchmarkSaveCheckpoint|BenchmarkRestoreCheckpoint' \
    -benchmem -benchtime "$benchtime" -count "$count" ./internal/ixpsim | tee "$tmp4"

awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^Benchmark/ {
    sub(/-[0-9]+$/, "", $1)   # strip the -GOMAXPROCS suffix
    # $2 is the iteration count; value/unit pairs start at $3.
    for (i = 3; i < NF; i += 2) {
        u = $(i + 1); v = $i + 0
        if (!(($1, u) in m) || v < m[$1, u]) m[$1, u] = v
    }
}
function op(label, n, last) {
    printf("  \"%s\": {\"ns_per_op\": %g, \"bytes_per_op\": %g, \"allocs_per_op\": %g}%s\n",
        label, m[n, "ns/op"], m[n, "B/op"], m[n, "allocs/op"], last ? "" : ",")
}
END {
    s = "BenchmarkSaveCheckpoint"
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n", date, cores
    printf "  \"note\": \"min of N runs; one op = one checkpoint of a trained pipeline (window + fitted default model + drop program) written to, or restored from, a temp dir\",\n"
    printf "  \"window_records\": %g,\n", m[s, "window-records"]
    printf "  \"file_bytes\": %g,\n", m[s, "file-bytes"]
    op("save", s, 0)
    op("restore", "BenchmarkRestoreCheckpoint", 1)
    print "}"
}' "$tmp4" > BENCH_PR4.json

echo "wrote BENCH_PR4.json ($(nproc) cores)"
fi

# Model lifecycle (PR 5): hot-swap latency (promoteLocked under the
# lifecycle lock), per-round scoring with and without a shadow challenger
# (the acceptance bound is shadow < 2x champion-only), the PSI drift-stat
# update, and the registry publish path. Records BENCH_PR5.json with the
# shadow overhead ratio computed from min-of-5, like the PR2/PR3 sections.
tmp5=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3" "$tmp4" "$tmp5"' EXIT

if want pr5; then
go test -run '^$' -bench 'BenchmarkHotSwap|BenchmarkScoringChampionOnly|BenchmarkScoringWithShadow|BenchmarkPSIUpdate' \
    -benchtime 1s -count 5 ./internal/ixpsim | tee "$tmp5"
go test -run '^$' -bench 'BenchmarkObserveFeatures|BenchmarkStats' \
    -benchtime 1s -count 5 ./internal/drift | tee -a "$tmp5"
go test -run '^$' -bench 'BenchmarkPublish' \
    -benchtime 1s -count 5 ./internal/registry | tee -a "$tmp5"

awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    sub(/-[0-9]+$/, "", $1)   # strip the -GOMAXPROCS suffix
    if (!($1 in ns) || $3 + 0 < ns[$1]) ns[$1] = $3 + 0
}
END {
    champ = ns["BenchmarkScoringChampionOnly"]
    shadow = ns["BenchmarkScoringWithShadow"]
    ratio = champ > 0 ? shadow / champ : 0
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n", date, cores
    printf "  \"hot_swap_ns\": %g,\n", ns["BenchmarkHotSwap"]
    printf "  \"scoring_ns_per_round\": {\"champion_only\": %g, \"with_shadow\": %g},\n", champ, shadow
    printf "  \"shadow_overhead_ratio\": %.3f,\n", ratio
    printf "  \"psi_update_ns_per_round\": %g,\n", ns["BenchmarkPSIUpdate"]
    printf "  \"drift_observe_features_ns\": %g,\n", ns["BenchmarkObserveFeatures"]
    printf "  \"drift_stats_ns\": %g,\n", ns["BenchmarkStats"]
    printf "  \"registry_publish_ns\": %g\n", ns["BenchmarkPublish"]
    print "}"
}' "$tmp5" > BENCH_PR5.json

echo "wrote BENCH_PR5.json ($(nproc) cores)"
fi

# Sketch-backed aggregation (PR 6): the cardinality matrix (exact vs sketch
# minute-flush throughput and peak aggregation heap at 1x/10x/100x/1000x the
# 512-target baseline — the sketch heap column staying flat is the
# bounded-memory claim) plus the scaling matrix of AggregateRecords with
# GOMAXPROCS and Workers swept together. Min-of-N like the other sections; the awk scans
# unit-tagged fields instead of positions because -benchmem and ReportMetric
# ordering differ between the two benchmarks.
tmp6=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3" "$tmp4" "$tmp5" "$tmp6"' EXIT

if want pr6; then
go test -run '^$' -bench 'BenchmarkAggCardinality' -benchmem \
    -benchtime "$benchtime" -count "$count" ./internal/features | tee "$tmp6"
go test -run '^$' -bench 'BenchmarkParallelIngest' \
    -benchtime "$benchtime" -count "$count" ./internal/features | tee -a "$tmp6"

awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^Benchmark/ {
    sub(/-[0-9]+$/, "", $1)   # strip the -GOMAXPROCS suffix
    # $2 is the iteration count; value/unit pairs start at $3.
    for (i = 3; i < NF; i += 2) {
        u = $(i + 1); v = $i + 0
        if (u == "ns/op" && (!($1 in ns) || v < ns[$1])) ns[$1] = v
        if (u == "peak-heap-bytes" && (!($1 in hp) || v < hp[$1])) hp[$1] = v
    }
}
function card(mode, mult,    n) {
    n = "BenchmarkAggCardinality/" mode "/x" mult
    if (!first) printf(",\n")
    first = 0
    printf("    {\"mode\": \"%s\", \"mult\": %d, \"ns_per_op\": %g, \"peak_heap_bytes\": %g}",
        mode, mult, ns[n], hp[n])
}
function scale(procs,    n) {
    n = "BenchmarkParallelIngest/procs=" procs
    if (!first) printf(",\n")
    first = 0
    printf("    {\"procs\": %d, \"ns_per_op\": %g}", procs, ns[n])
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n", date, cores
    printf "  \"note\": \"min of N runs; one op = one minute of flows at 512*mult distinct targets\",\n"
    print  "  \"cardinality\": ["
    first = 1
    card("exact", 1); card("exact", 10); card("exact", 100); card("exact", 1000)
    card("sketch", 1); card("sketch", 10); card("sketch", 100); card("sketch", 1000)
    print "\n  ],"
    e1 = ns["BenchmarkAggCardinality/exact/x1"]
    s1 = ns["BenchmarkAggCardinality/sketch/x1"]
    h1 = hp["BenchmarkAggCardinality/sketch/x1"]
    h100 = hp["BenchmarkAggCardinality/sketch/x100"]
    printf("  \"sketch_throughput_vs_exact_x1\": %.3f,\n", s1 > 0 ? e1 / s1 : 0)
    printf("  \"sketch_heap_growth_x1_to_x100\": %.3f,\n", h1 > 0 ? h100 / h1 : 0)
    print  "  \"scaling\": ["
    first = 1
    scale(1); scale(2); scale(4); scale(8)
    print "\n  ]\n}"
}' "$tmp6" > BENCH_PR6.json

echo "wrote BENCH_PR6.json ($(nproc) cores)"
fi

# Compiled mitigation fast path (PR 7): per-record match cost of the
# compiled program vs the reference interpreter on hit and miss traffic at
# 16/256/4096 rules (reported as pps = 1e9/ns), compile latency per
# rule-set size, and the hot-swap + per-batch stage overhead. The headline
# gate is miss_speedup_256 (interpreter ns / compiled ns on non-matching
# traffic — the benign-traffic common case): the acceptance bound is >= 10.
# Min-of-N like the other sections.
tmp7=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3" "$tmp4" "$tmp5" "$tmp6" "$tmp7"' EXIT

if want pr7; then
go test -run '^$' -bench 'BenchmarkMatch|BenchmarkCompile|BenchmarkStageSwap|BenchmarkStageEmitBatch' \
    -benchmem -benchtime "$benchtime" -count "$count" ./internal/dropper | tee "$tmp7"

awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    sub(/-[0-9]+$/, "", $1)   # strip the -GOMAXPROCS suffix
    if (!($1 in ns) || $3 + 0 < ns[$1]) ns[$1] = $3 + 0
}
function m(kind, n) { return ns["BenchmarkMatch/" kind "/rules=" n] }
function row(kind, n,    v) {
    v = m(kind, n)
    if (!first) printf(",\n")
    first = 0
    printf("    {\"impl\": \"%s\", \"rules\": %d, \"ns_per_record\": %g, \"pps\": %g}",
        kind, n, v, v > 0 ? 1e9 / v : 0)
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n", date, cores
    printf "  \"note\": \"min of N runs; pps = 1e9/ns_per_record; miss = non-matching traffic, the benign common case\",\n"
    print  "  \"match\": ["
    first = 1
    row("compiled_miss", 16); row("compiled_miss", 256); row("compiled_miss", 4096)
    row("compiled_hit", 16); row("compiled_hit", 256); row("compiled_hit", 4096)
    row("interp_miss", 16); row("interp_miss", 256); row("interp_miss", 4096)
    row("interp_hit", 16); row("interp_hit", 256); row("interp_hit", 4096)
    print "\n  ],"
    cm = m("compiled_miss", 256); im = m("interp_miss", 256)
    ch = m("compiled_hit", 256); ih = m("interp_hit", 256)
    printf("  \"miss_speedup_256\": %.2f,\n", cm > 0 ? im / cm : 0)
    printf("  \"hit_speedup_256\": %.2f,\n", ch > 0 ? ih / ch : 0)
    printf("  \"compile_ns\": {\"rules_16\": %g, \"rules_256\": %g, \"rules_4096\": %g},\n",
        ns["BenchmarkCompile/rules=16"], ns["BenchmarkCompile/rules=256"], ns["BenchmarkCompile/rules=4096"])
    printf("  \"stage_swap_ns\": %g,\n", ns["BenchmarkStageSwap"])
    printf("  \"stage_emit_batch_ns_256_records\": %g\n", ns["BenchmarkStageEmitBatch"])
    print "}"
}' "$tmp7" > BENCH_PR7.json

echo "wrote BENCH_PR7.json ($(nproc) cores)"
fi

# Boosted-tree fast path (PR 8): trainer wall-clock (preserved reference
# vs the in-place rewrite, exact and FastHist modes — acceptance bound is
# fast >= 1.5x reference), batch inference (per-row node walker vs the
# compiled flat program at production ensemble scale, 300 trees x depth 8
# on 20k rows — bound is flat >= 3x per-row), the flat path's allocs/op
# (bound: 0), and the champion+shadow scoring overhead ratio now that
# shadow scoring rides the buffer-reuse serving path. Min-of-N like the
# other sections.
tmp8=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3" "$tmp4" "$tmp5" "$tmp6" "$tmp7" "$tmp8"' EXIT

if want pr8; then
go test -run '^$' -bench 'BenchmarkFitReference|BenchmarkFitFast|BenchmarkBatchPredict' \
    -benchmem -benchtime "$benchtime" -count "$count" ./internal/ml/xgb | tee "$tmp8"
go test -run '^$' -bench 'BenchmarkScoringChampionOnly|BenchmarkScoringWithShadow' \
    -benchtime "$benchtime" -count "$count" ./internal/ixpsim | tee -a "$tmp8"

awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^Benchmark/ {
    sub(/-[0-9]+$/, "", $1)   # strip the -GOMAXPROCS suffix
    # $2 is the iteration count; value/unit pairs start at $3.
    for (i = 3; i < NF; i += 2) {
        u = $(i + 1); v = $i + 0
        if (u == "ns/op" && (!($1 in ns) || v < ns[$1])) ns[$1] = v
        if (u == "allocs/op" && (!($1 in al) || v < al[$1])) al[$1] = v
    }
}
END {
    fr = ns["BenchmarkFitReference"]
    ff = ns["BenchmarkFitFast"]
    fh = ns["BenchmarkFitFastHist"]
    pr = ns["BenchmarkBatchPredictReference"]
    pf = ns["BenchmarkBatchPredictFlat"]
    champ = ns["BenchmarkScoringChampionOnly"]
    shadow = ns["BenchmarkScoringWithShadow"]
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n", date, cores
    printf "  \"note\": \"min of N runs; fit = 4000x24 blobs depth 8; predict batch = 20000 rows through 300 trees of depth 8\",\n"
    printf "  \"fit_ns\": {\"reference\": %g, \"fast\": %g, \"fast_hist\": %g},\n", fr, ff, fh
    printf("  \"fit_speedup\": %.2f,\n", ff > 0 ? fr / ff : 0)
    printf("  \"fit_hist_speedup\": %.2f,\n", fh > 0 ? fr / fh : 0)
    printf "  \"predict_ns_per_batch\": {\"per_row_walker\": %g, \"flat\": %g},\n", pr, pf
    printf("  \"predict_speedup\": %.2f,\n", pf > 0 ? pr / pf : 0)
    printf "  \"flat_allocs_per_op\": %g,\n", al["BenchmarkBatchPredictFlat"]
    printf("  \"shadow_overhead_ratio\": %.3f\n", champ > 0 ? shadow / champ : 0)
    print "}"
}' "$tmp8" > BENCH_PR8.json

echo "wrote BENCH_PR8.json ($(nproc) cores)"
fi

# Multi-IXP federated cluster (PR 9): per-site ingest throughput of the
# live topology at the paper's site counts (generate, partition by target
# IP, shard-ingest, settle — one simulated minute per op), a full gossip
# round (champion export, cross-delivery, per-site election), and the
# election overhead ratio: scoring one shared-parse candidate on the
# site's own window vs scoring the incumbent alone. The acceptance gate
# is ratio < 2x — the coordinator parses each travelling bundle once per
# round and destinations re-bind encoders with a shallow copy, so
# candidate scoring must stay marginal. Min-of-N like the other sections.
tmp9=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3" "$tmp4" "$tmp5" "$tmp6" "$tmp7" "$tmp8" "$tmp9"' EXIT

if want pr9; then
go test -run '^$' -bench 'BenchmarkClusterIngest|BenchmarkGossipRound|BenchmarkIncumbentScore|BenchmarkElectionScore' \
    -benchtime "$benchtime" -count "$count" ./internal/cluster | tee "$tmp9"

awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^Benchmark/ {
    sub(/-[0-9]+$/, "", $1)   # strip the -GOMAXPROCS suffix
    for (i = 3; i < NF; i += 2) {
        u = $(i + 1); v = $i + 0
        if (u == "ns/op" && (!($1 in ns) || v < ns[$1])) ns[$1] = v
        if (u == "records/s" && (!($1 in rs) || v > rs[$1])) rs[$1] = v
    }
}
END {
    inc = ns["BenchmarkIncumbentScore"]
    el = ns["BenchmarkElectionScore"]
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n", date, cores
    printf "  \"note\": \"min of N runs (max for throughput); ingest = one simulated minute across all sites; gossip = export + cross-delivery + elections on a trained 2-site cluster\",\n"
    printf "  \"cluster_ingest_ns_per_min\": {\"sites_1\": %g, \"sites_2\": %g, \"sites_5\": %g},\n", \
        ns["BenchmarkClusterIngest/sites=1"], ns["BenchmarkClusterIngest/sites=2"], ns["BenchmarkClusterIngest/sites=5"]
    printf "  \"cluster_ingest_records_per_s\": {\"sites_1\": %g, \"sites_2\": %g, \"sites_5\": %g},\n", \
        rs["BenchmarkClusterIngest/sites=1"], rs["BenchmarkClusterIngest/sites=2"], rs["BenchmarkClusterIngest/sites=5"]
    printf "  \"gossip_round_ns\": %g,\n", ns["BenchmarkGossipRound"]
    printf "  \"incumbent_score_ns\": %g,\n", inc
    printf "  \"election_score_ns\": %g,\n", el
    printf("  \"election_overhead_ratio\": %.3f\n", inc > 0 ? el / inc : 0)
    print "}"
}' "$tmp9" > BENCH_PR9.json

echo "wrote BENCH_PR9.json ($(nproc) cores)"

ratio=$(awk -F'[:,]' '/election_overhead_ratio/ {print $2+0}' BENCH_PR9.json)
awk -v r="$ratio" 'BEGIN { if (r <= 0 || r >= 2) { printf "FAIL: election overhead ratio %.3f not in (0, 2)\n", r; exit 1 } printf "election overhead ratio %.3f < 2x\n", r }'
fi

# Config-driven segment pipeline (PR 10): per-batch cost of the segment
# layer's instrumented handoff (Feed -> input pass-through -> panic-isolated
# hop -> scrubber ingest) vs the hardwired chain's direct EmitBatch, both
# pushing admitted 256-record batches through the same detection queue. The
# acceptance gate is overhead_ratio < 1.05x. Always min-of-5 at 2s like the
# PR2 section: the gate is a ratio of two close numbers and short benchtimes
# are pure noise.
tmp10=$(mktemp)
trap 'rm -f "$tmp" "$tmp2" "$tmp3" "$tmp4" "$tmp5" "$tmp6" "$tmp7" "$tmp8" "$tmp9" "$tmp10"' EXIT

if want pr10; then
go test -run '^$' -bench 'BenchmarkHandoffHardwired|BenchmarkHandoffSegment' \
    -benchtime 2s -count 5 ./internal/segment | tee "$tmp10"

awk -v cores="$(nproc)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    sub(/-[0-9]+$/, "", $1)   # strip the -GOMAXPROCS suffix
    if (!($1 in ns) || $3 + 0 < ns[$1]) ns[$1] = $3 + 0
}
END {
    hw = ns["BenchmarkHandoffHardwired"]
    seg = ns["BenchmarkHandoffSegment"]
    printf "{\n  \"date\": \"%s\",\n  \"cores\": %d,\n", date, cores
    printf "  \"note\": \"min of 5 runs at 2s; one op = 256 admitted 256-record batches fed and drained through the detection queue, GC pinned; per-batch figures\",\n"
    printf "  \"handoff_ns_per_batch\": {\"hardwired\": %g, \"segment\": %g},\n", hw / 256, seg / 256
    printf("  \"overhead_ratio\": %.4f\n", hw > 0 ? seg / hw : 0)
    print "}"
}' "$tmp10" > BENCH_PR10.json

echo "wrote BENCH_PR10.json ($(nproc) cores)"

ratio=$(awk -F'[:,]' '/overhead_ratio/ {print $2+0}' BENCH_PR10.json)
awk -v r="$ratio" 'BEGIN { if (r <= 0 || r >= 1.05) { printf "FAIL: segment handoff overhead %.4fx not in (0, 1.05)\n", r; exit 1 } printf "segment handoff overhead %.4fx < 1.05x\n", r }'
fi

# Every section run may have refreshed a BENCH_PRn.json, so re-merge the
# trajectory unconditionally — an -only subset can never leave
# BENCH_TRAJECTORY.json stale behind the artifact it just rewrote.
go run ./cmd/benchsummary -o BENCH_TRAJECTORY.json BENCH_PR*.json
echo "wrote BENCH_TRAJECTORY.json"
