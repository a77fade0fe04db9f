#!/bin/sh
# Microbenchmark harness for the pipelined-joiner work: runs the hash-join
# kernel benches (map baseline vs flat table, serial vs parallel), the
# tuple codec benches (seed append-growth encoder vs pooled single-shot)
# and the end-to-end IJ workload (prefetch off vs on), all with -benchmem,
# and writes the parsed results plus headline ratios to BENCH_pr3.json.
# A second leg runs the streaming-plan LIMIT early-exit benchmark
# (cancel-on-limit) and writes its edge fraction and peak memory to
# BENCH_pr4.json.
# A third leg is the metrics overhead guard: the IJ workload with a no-op
# (nil) registry vs a live instrumented one, plus the instrument
# microbenches, written to BENCH_pr5.json; the headline ratio
# metrics_overhead_fraction must stay ≤ 0.03.
# A fourth leg benchmarks living-dataset view maintenance on an
# append-heavy workload (fold one committed time step into a materialized
# join view): delta-join refresh vs full recompute, written to
# BENCH_pr6.json with the headline delta_refresh_speedup_vs_full.
# A fifth leg benchmarks the compressed columnar wire format on
# network-bound IJ and GH workloads (8 MB/s NICs): row-major vs colenc
# fetch codec, written to BENCH_pr8.json with the headline fetch-byte and
# wall-clock reductions (both must clear 30% on this data).
# A sixth leg runs the adaptive-planner regret replay: the golden SQL
# corpus under several cluster regimes, each query timed under both forced
# engines, scoring the static and online-calibrated decisions against the
# measured winner. The harness writes BENCH_pr9.json itself (decision
# accuracy and wall-clock regret per layer); adaptive accuracy must stay
# >= 0.80.
# A seventh leg prices out-of-core execution: one sort + grouped-aggregate
# + join query swept from unbudgeted down to a 4 KiB budget (sort runs,
# aggregation partitions and join build all on scratch), written to
# BENCH_pr10.json with the per-budget wall-clock ratios vs in-memory and
# the scratch volume each budget causes.
#
#   scripts/bench.sh [pr3.json] [pr4.json] [pr5.json] [pr6.json] [pr8.json] [pr9.json] [pr10.json]
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_pr3.json}"
out4="${2:-BENCH_pr4.json}"
out5="${3:-BENCH_pr5.json}"
out6="${4:-BENCH_pr6.json}"
out8="${5:-BENCH_pr8.json}"
out9="${6:-BENCH_pr9.json}"
out10="${7:-BENCH_pr10.json}"
raw="$(mktemp)"
raw4="$(mktemp)"
raw5="$(mktemp)"
raw6="$(mktemp)"
raw8="$(mktemp)"
raw10="$(mktemp)"
trap 'rm -f "$raw" "$raw4" "$raw5" "$raw6" "$raw8" "$raw10"' EXIT

echo "== hashjoin kernels (Build/Probe: map vs flat, serial vs parallel)"
go test -run '^$' -bench 'BenchmarkBuild|BenchmarkProbe' -benchtime 200x -benchmem \
    ./internal/hashjoin/ | tee -a "$raw"

echo "== tuple codec (Encode: seed vs pooled; Decode)"
go test -run '^$' -bench 'BenchmarkEncode|BenchmarkDecode' -benchtime 200x -benchmem \
    ./internal/tuple/ | tee -a "$raw"

echo "== IJ workload (throttled cluster, prefetch off vs on)"
go test -run '^$' -bench BenchmarkIJWorkload -benchtime 5x -benchmem \
    ./internal/ij/ | tee -a "$raw"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns[name] = $3
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      bop[name] = $(i-1)
        if ($i == "allocs/op") aop[name] = $(i-1)
        if ($i == "MB/s")      mbs[name] = $(i-1)
    }
    order[++n] = name
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        k = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s", k, ns[k]
        if (k in mbs) printf ", \"mb_per_s\": %s", mbs[k]
        if (k in bop) printf ", \"bytes_per_op\": %s", bop[k]
        if (k in aop) printf ", \"allocs_per_op\": %s", aop[k]
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  ],\n  \"ratios\": {\n"
    bm = ns["BenchmarkBuild/map/n=262144"];  bf = ns["BenchmarkBuild/flatpar/n=262144"]
    pm = ns["BenchmarkProbe/map/n=262144"]; pf = ns["BenchmarkProbe/flatpar/n=262144"]
    es = ns["BenchmarkEncode/seed/n=65536"]; ep = ns["BenchmarkEncode/pooled/n=65536"]
    as = aop["BenchmarkEncode/seed/n=65536"]; ap = aop["BenchmarkEncode/pooled/n=65536"]
    i0 = ns["BenchmarkIJWorkload/prefetch=0"]; i2 = ns["BenchmarkIJWorkload/prefetch=2"]
    if (bm && bf) printf "    \"build_speedup_vs_map\": %.2f,\n", bm / bf
    if (pm && pf) printf "    \"probe_speedup_vs_map\": %.2f,\n", pm / pf
    if (bm && bf && pm && pf)
        printf "    \"build_plus_probe_speedup_vs_map\": %.2f,\n", (bm + pm) / (bf + pf)
    if (es && ep) printf "    \"encode_speedup_vs_seed\": %.2f,\n", es / ep
    if (ap != "" && as) printf "    \"encode_allocs_reduction\": %.3f,\n", 1 - ap / as
    if (i0 && i2) printf "    \"ij_prefetch_wallclock_reduction\": %.3f\n", 1 - i2 / i0
    printf "  }\n}\n"
}
' "$raw" > "$out"

echo "== wrote $out"
cat "$out"

echo "== streaming plan LIMIT early exit"
go test -run '^$' -bench BenchmarkLimitEarlyExit -benchtime 10x \
    ./internal/planner/ | tee "$raw4"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
    for (i = 4; i <= NF; i++) {
        if ($i == "edgefrac") ef[name] = $(i-1)
        if ($i == "peakMB")   pk[name] = $(i-1)
    }
    order[++n] = name
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        k = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s", k, ns[k]
        if (k in ef) printf ", \"edge_fraction_joined\": %s", ef[k]
        if (k in pk) printf ", \"peak_mb\": %s", pk[k]
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  ]\n}\n"
}
' "$raw4" > "$out4"

echo "== wrote $out4"
cat "$out4"

echo "== metrics overhead (IJ workload: no-op registry vs instrumented)"
go test -run '^$' -bench BenchmarkIJMetricsOverhead -benchtime 5x \
    ./internal/ij/ | tee "$raw5"

echo "== metrics instruments (nil vs live counter, live histogram)"
go test -run '^$' -bench 'BenchmarkCounterNoop|BenchmarkCounterLive|BenchmarkHistogramLive' \
    -benchmem ./internal/metrics/ | tee -a "$raw5"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      bop[name] = $(i-1)
        if ($i == "allocs/op") aop[name] = $(i-1)
    }
    order[++n] = name
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        k = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s", k, ns[k]
        if (k in bop) printf ", \"bytes_per_op\": %s", bop[k]
        if (k in aop) printf ", \"allocs_per_op\": %s", aop[k]
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  ],\n  \"ratios\": {\n"
    off = ns["BenchmarkIJMetricsOverhead/noop"]
    on  = ns["BenchmarkIJMetricsOverhead/instrumented"]
    if (off && on) printf "    \"metrics_overhead_fraction\": %.4f\n", on / off - 1
    printf "  }\n}\n"
}
' "$raw5" > "$out5"

echo "== wrote $out5"
cat "$out5"

echo "== view maintenance (delta-join refresh vs full recompute per appended step)"
go test -run '^$' -bench BenchmarkViewMaintenance -benchtime 5x \
    ./internal/ingest/ | tee "$raw6"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
    order[++n] = name
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        k = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s}%s\n", k, ns[k], (i < n ? "," : "")
    }
    printf "  ],\n  \"ratios\": {\n"
    d = ns["BenchmarkViewMaintenance/delta"]
    f = ns["BenchmarkViewMaintenance/full"]
    if (d && f) {
        printf "    \"delta_refresh_speedup_vs_full\": %.2f,\n", f / d
        printf "    \"delta_refresh_wallclock_reduction\": %.3f\n", 1 - d / f
    }
    printf "  }\n}\n"
}
' "$raw6" > "$out6"

echo "== wrote $out6"
cat "$out6"

echo "== compressed wire format (network-bound IJ + GH: rowmajor vs colenc)"
go test -run '^$' -bench 'BenchmarkIJWire|BenchmarkGHWire' -benchtime 5x \
    ./internal/ij/ ./internal/gh/ | tee "$raw8"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
    for (i = 4; i <= NF; i++) {
        if ($i == "fetchMB") mb[name] = $(i-1)
    }
    order[++n] = name
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        k = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s", k, ns[k]
        if (k in mb) printf ", \"fetch_mb\": %s", mb[k]
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  ],\n  \"ratios\": {\n"
    ir = "BenchmarkIJWire/wire=rowmajor"; ic = "BenchmarkIJWire/wire=colenc"
    gr = "BenchmarkGHWire/wire=rowmajor"; gc = "BenchmarkGHWire/wire=colenc"
    if (mb[ir] && mb[ic]) printf "    \"ij_fetch_bytes_reduction\": %.3f,\n", 1 - mb[ic] / mb[ir]
    if (ns[ir] && ns[ic]) printf "    \"ij_wire_wallclock_reduction\": %.3f,\n", 1 - ns[ic] / ns[ir]
    if (mb[gr] && mb[gc]) printf "    \"gh_fetch_bytes_reduction\": %.3f,\n", 1 - mb[gc] / mb[gr]
    if (ns[gr] && ns[gc]) printf "    \"gh_wire_wallclock_reduction\": %.3f\n", 1 - ns[gc] / ns[gr]
    printf "  }\n}\n"
}
' "$raw8" > "$out8"

echo "== wrote $out8"
cat "$out8"

echo "== adaptive planner regret replay (static vs calibrated vs forced engines)"
go run ./cmd/sciview-bench -regret -regret-out "$out9"

echo "== wrote $out9"
awk '/"adaptive_accuracy"/ {
    acc = $2 + 0
    if (acc < 0.80) { printf "adaptive_accuracy %.2f below 0.80 floor\n", acc; exit 1 }
    printf "adaptive_accuracy %.2f >= 0.80\n", acc
}' "$out9"

echo "== out-of-core sweep (sort+aggregate+join at shrinking budgets vs in-memory)"
go test -run '^$' -bench BenchmarkSpillSweep -benchtime 5x \
    ./internal/planner/ | tee "$raw10"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
    for (i = 4; i <= NF; i++) {
        if ($i == "spillMB") mb[name] = $(i-1)
    }
    order[++n] = name
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        k = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s", k, ns[k]
        if (k in mb) printf ", \"spill_mb\": %s", mb[k]
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  ],\n  \"ratios\": {\n"
    base = ns["BenchmarkSpillSweep/budget=inmem"]
    b1 = ns["BenchmarkSpillSweep/budget=1MiB"]
    b64 = ns["BenchmarkSpillSweep/budget=64KiB"]
    b4 = ns["BenchmarkSpillSweep/budget=4KiB"]
    if (base && b1)  printf "    \"spill_1MiB_wallclock_ratio\": %.2f,\n", b1 / base
    if (base && b64) printf "    \"spill_64KiB_wallclock_ratio\": %.2f,\n", b64 / base
    if (base && b4)  printf "    \"spill_4KiB_wallclock_ratio\": %.2f\n", b4 / base
    printf "  }\n}\n"
}
' "$raw10" > "$out10"

echo "== wrote $out10"
cat "$out10"
