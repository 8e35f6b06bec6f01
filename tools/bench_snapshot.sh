#!/usr/bin/env bash
# Records benchmark snapshots at the repo root: BENCH_micro.json (kernel /
# encoder / search micro-benchmarks), BENCH_churn.json (live-index churn)
# and BENCH_scale.json (quantized and mapped stores). The served pipeline
# is measured by e2ebench (`python3 e2ebench/run.py`), not here.
#
# Runs the kernel, GEMM, and encoder micro-benchmarks from bench_micro
# (the dispatch tiers and GEMM paths are covered inside the binary via
# the trailing benchmark arg) and
# writes google-benchmark's JSON output. Commit the refreshed files when
# performance-relevant code changes so the before/after numbers travel with
# the code.
#
# The micro filter also records the metrics-overhead pairs
# (BM_PlmEncodeColumn / BM_HnswSearch vs their *MetricsOff twins), so
# BENCH_micro.json carries the instrumentation cost of the observability
# layer (DESIGN.md §9 budgets it at <2%), plus the steady-state
# allocation-discipline benches (BM_HnswSearchInto,
# BM_SearcherSteadyStateQuery), timings only: their zero allocations per
# query are asserted under a ban in alloc_guard_test.
#
# BENCH_churn.json (from bench_churn) carries the live-mutability numbers
# of DESIGN.md §12: search mean + p50/p99 tail with and without a
# concurrent mutator, per-mutation cost in-memory vs WAL-backed, snapshot
# publication and compaction latency, and the recall_churned /
# recall_rebuilt / recall_drift counters against exact flat-index ground
# truth.
#
# Usage: tools/bench_snapshot.sh [build-dir] [extra benchmark args...]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
shift || true

MICRO_BIN="$BUILD/bench/bench_micro"
CHURN_BIN="$BUILD/bench/bench_churn"
for bin in "$MICRO_BIN" "$CHURN_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_snapshot: $bin not built (cmake --build $BUILD --target $(basename "$bin"))" >&2
    exit 1
  fi
done

FILTER='BM_Kernel|BM_Sgemm|BM_NaiveGemm|BM_ForwardBlocks|BM_EncodeToVector|BM_HnswSearch|BM_PlmEncodeColumn|BM_SearcherSteadyState|BM_FlatSearchBatch'
OUT="$ROOT/BENCH_micro.json"

"$MICRO_BIN" \
  --benchmark_filter="$FILTER" \
  --benchmark_min_time=0.2 \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  "$@"

echo "bench_snapshot: wrote $OUT"

CHURN_OUT="$ROOT/BENCH_churn.json"

"$CHURN_BIN" \
  --benchmark_min_time=0.2 \
  --benchmark_out="$CHURN_OUT" \
  --benchmark_out_format=json \
  "$@"

echo "bench_snapshot: wrote $CHURN_OUT"

# BENCH_scale.json (DESIGN.md §14): the beyond-RAM matrix — {float,SQ8} x
# {owned,mapped} open latency, resident bytes, and recall (plus the
# refine_factor sweep) through the unified SaveIndexFile/OpenIndex API at
# 500K x 256. Acceptance: sq8_memory_reduction >= 3.5 (the binary exits
# nonzero below it) and mapped opens staying O(1) — milliseconds against
# the owned path's full-file read+CRC. Override with DJ_SCALE_ARGS
# (e.g. --rows=20000) for quick smokes.
SCALE_BIN="$BUILD/bench/bench_scale"
if [[ ! -x "$SCALE_BIN" ]]; then
  echo "bench_snapshot: $SCALE_BIN not built (cmake --build $BUILD --target bench_scale)" >&2
  exit 1
fi
SCALE_OUT="$ROOT/BENCH_scale.json"
# shellcheck disable=SC2086
"$SCALE_BIN" ${DJ_SCALE_ARGS:---rows=500000 --dim=256 --queries=32} \
  --out="$SCALE_OUT"

echo "bench_snapshot: wrote $SCALE_OUT"
