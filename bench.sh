#!/usr/bin/env bash
# bench.sh — verify loop + benchmark harness for the GDK kernels.
#
# Runs go vet and the full test suite under -race (the parallel and
# candidate-execution correctness gates), then two benchmark passes with
# -benchmem:
#   1. the Figure-1/Scenario benchmarks plus the threads=1 vs
#      threads=GOMAXPROCS kernel comparisons  -> BENCH_parallel.json
#   2. the candidate-list vs materializing selective-scan comparisons
#      (BenchmarkSelective_*)                 -> BENCH_candidates.json
#   3. the concurrent-session read throughput comparison
#      (BenchmarkConcurrentReaders at 1/4/8 sessions plus the
#      serialized baseline)                   -> BENCH_server.json
#   4. the durability comparison: WAL append vs pre-WAL full-rewrite
#      commits and crash-recovery replay
#      (BenchmarkCommitSmallWrite, BenchmarkWALRecovery) -> BENCH_wal.json
#   5. the column-statistics comparisons: zonemap skip-scan vs candidate
#      scan and merge vs hash join
#      (BenchmarkZonemapSelect, BenchmarkMergeJoin) -> BENCH_stats.json
#   6. the query-lifecycle costs: mid-join cancellation latency at
#      1M/10M rows and the cancellable-vs-plain execution overhead
#      (BenchmarkCancelLatency*, BenchmarkCtxOverhead*) -> BENCH_cancel.json
#   7. the replication costs: fresh-replica WAL catch-up throughput and
#      promotion (failover) latency
#      (BenchmarkReplCatchup, BenchmarkFailover) -> BENCH_repl.json
#   8. the group-commit comparison: N concurrent writers, grouped vs
#      serialized fsync, with the fsyncs/commit amortisation column
#      (BenchmarkCommitNWriters) -> BENCH_commit.json
#   9. the compressed-segment comparison: encoded vs plain scans and
#      aggregation, with the bytes_touched/op column
#      (BenchmarkCompress*) -> BENCH_compress.json
#  10. the join-ordering comparison: syntactic (the never-reordered
#      oracle) vs greedy over star/chain/snowflake, with plan_ns/op and
#      run_ns/op columns (BenchmarkJoinOrder) -> BENCH_joinorder.json
#
# Raw benchmark text lands under bench-artifacts/ (gitignored); only the
# BENCH_*.json baselines are checked in.
#
# Usage: ./bench.sh [bench-regex]   (overrides the first pass's pattern)
set -euo pipefail
cd "$(dirname "$0")"

PATTERN="${1:-BenchmarkFig|BenchmarkScenario|BenchmarkParallel|BenchmarkParseCache|BenchmarkAblation}"
CAND_PATTERN="BenchmarkSelective"
SERVER_PATTERN="BenchmarkConcurrentReaders"
WAL_PATTERN="BenchmarkCommitSmallWrite|BenchmarkWALRecovery"
STATS_PATTERN="BenchmarkZonemapSelect|BenchmarkMergeJoin"
CANCEL_PATTERN="BenchmarkCancelLatency|BenchmarkCtxOverhead"
REPL_PATTERN="BenchmarkReplCatchup|BenchmarkFailover"
# mode= only: the speedup-gate sub-benchmark's ns/op is a fixed-workload
# comparison, not a per-op timing, so it stays out of the regression JSON
# (the CI bench-smoke step still runs it via -bench .).
COMMIT_PATTERN="BenchmarkCommitNWriters/mode="
COMPRESS_PATTERN="BenchmarkCompress"
JOINORDER_PATTERN="BenchmarkJoinOrder"

# Raw per-pass output is an artifact, not a source: keep it out of the
# repo root so it can never be committed again.
ARTIFACTS=bench-artifacts
mkdir -p "${ARTIFACTS}"

# SKIP_VERIFY=1 skips the vet/test preamble (CI runs those in their own
# jobs; duplicating them here would double the bench job's wall-clock).
if [[ "${SKIP_VERIFY:-0}" != "1" ]]; then
    echo "== go vet"
    go vet ./...

    echo "== go test -race (kernel equivalence under the race detector)"
    go test -race ./internal/gdk/... ./internal/par/...

    echo "== go test (full tier-1 suite)"
    go test ./...
fi

# Record the measurement environment so regression comparisons can skip
# when the hardware does not match the baseline's.
cpu_model="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)"
printf '{"cpu": "%s", "cores": %s, "goos": "%s"}\n' \
    "${cpu_model}" "$(nproc 2>/dev/null || echo 0)" "$(go env GOOS)" > bench_env.json

# bench_json PATTERN OUT_JSON OUT_TXT — run one benchmark pass and convert
# "BenchmarkName-8  iters  ns/op  B/op  allocs/op" lines to JSON.
bench_json() {
    local pattern="$1" out="$2" txt="$3"
    echo "== benchmarks: ${pattern}"
    go test -run '^$' -bench "${pattern}" -benchmem . | tee "${txt}"
    awk '
    BEGIN { print "["; first = 1 }
    /^Benchmark/ {
        name = $1; iters = $2; ns = $3; bytes = ""; allocs = ""; fsyncs = ""; touched = ""
        plan = ""; run = ""
        for (i = 4; i <= NF; i++) {
            if ($(i) == "B/op")             bytes   = $(i - 1)
            if ($(i) == "allocs/op")        allocs  = $(i - 1)
            if ($(i) == "fsyncs/commit")    fsyncs  = $(i - 1)
            if ($(i) == "bytes_touched/op") touched = $(i - 1)
            if ($(i) == "plan_ns/op")       plan    = $(i - 1)
            if ($(i) == "run_ns/op")        run     = $(i - 1)
        }
        if (!first) printf ",\n"
        first = 0
        printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
        if (bytes   != "") printf ", \"bytes_per_op\": %s", bytes
        if (allocs  != "") printf ", \"allocs_per_op\": %s", allocs
        if (fsyncs  != "") printf ", \"fsyncs_per_commit\": %s", fsyncs
        if (touched != "") printf ", \"bytes_touched_per_op\": %s", touched
        if (plan    != "") printf ", \"plan_ns_per_op\": %s", plan
        if (run     != "") printf ", \"run_ns_per_op\": %s", run
        printf "}"
    }
    END { print "\n]" }
    ' "${txt}" > "${out}"
    echo "wrote ${out} ($(grep -c '"name"' "${out}") entries)"
}

bench_json "${PATTERN}" BENCH_parallel.json "${ARTIFACTS}/bench_out.txt"
bench_json "${CAND_PATTERN}" BENCH_candidates.json "${ARTIFACTS}/bench_cand_out.txt"
bench_json "${SERVER_PATTERN}" BENCH_server.json "${ARTIFACTS}/bench_server_out.txt"
bench_json "${WAL_PATTERN}" BENCH_wal.json "${ARTIFACTS}/bench_wal_out.txt"
bench_json "${STATS_PATTERN}" BENCH_stats.json "${ARTIFACTS}/bench_stats_out.txt"
bench_json "${CANCEL_PATTERN}" BENCH_cancel.json "${ARTIFACTS}/bench_cancel_out.txt"
bench_json "${REPL_PATTERN}" BENCH_repl.json "${ARTIFACTS}/bench_repl_out.txt"
bench_json "${COMMIT_PATTERN}" BENCH_commit.json "${ARTIFACTS}/bench_commit_out.txt"
bench_json "${COMPRESS_PATTERN}" BENCH_compress.json "${ARTIFACTS}/bench_compress_out.txt"
bench_json "${JOINORDER_PATTERN}" BENCH_joinorder.json "${ARTIFACTS}/bench_joinorder_out.txt"
