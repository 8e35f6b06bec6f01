#!/usr/bin/env bash
# Full correctness matrix for the DeepJoin tree (see DESIGN.md,
# "Correctness tooling"):
#
#   1. plain build          + full ctest suite (includes the lint label:
#                             dj_lint, dj_header_check, their self-tests;
#                             and the kernel tier checks: kernels_test under
#                             DJ_FORCE_SCALAR_KERNELS=1 and the
#                             encoder_probe dump diffs, see util/kernels.h)
#   2. clang thread-safety  + full ctest suite, built with clang++ and
#      build                  -DDJ_THREAD_SAFETY=ON so -Wthread-safety
#                             violations are errors and the negative-compile
#                             proof runs [skipped with a notice: no clang++]
#   3. ASan+UBSan build     + full ctest suite, including the `fault` label
#                             (fault-injection + corruption torture) and the
#                             kernel tier checks, so every injected failure
#                             path and kernel tail is leak/UB-checked
#   4. TSan build           + the `tsan`-labeled concurrency tests
#   4a. churn leg           + the live-index churn suites re-run by name:
#                             churn stress under TSan and the crash torture
#                             (every injected publish fault point) plus the
#                             live-index lifecycle tests under ASan+UBSan,
#                             so a mutability regression fails as its own
#                             labeled line, not buried in a full-suite leg
#   4b. lock-rank build     + Debug tree with -DDJ_LOCK_RANK=ON running the
#                             death/tsan/lint labels (runtime rank
#                             enforcement, dj_deadlock fixtures, tree scan)
#                             and a dj_lockgraph JSON/DOT smoke dump
#   4c. alloc-guard build   + Debug tree with -DDJ_ALLOC_GUARD=ON running
#                             the death/lint labels (ScopedAllocBan aborts,
#                             the zero-allocation steady-state search proof,
#                             dj_alloc fixtures + tree scan) and a guarded
#                             dj_stats smoke checking the tallies export
#   4d. serve leg           + the serving-layer suites re-run by name: the
#                             open-loop serve stress (clients racing the
#                             dispatcher and a live mutator) under TSan,
#                             and the deadline short-circuit / backpressure
#                             suites under ASan+UBSan
#   5. clang-tidy           over src/**.cc with the checked-in .clang-tidy
#                             [skipped with a notice when absent]
#
# Usage: tools/check.sh [--quick]
#   --quick  plain build + ctest only (skips everything else)
#
# Build trees land in build/ (plain), build-clang/, build-asan/,
# build-tsan/ next to the source root, so the plain tree matches the
# tier-1 verify command.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

run_profile() {
  local dir="$1" label="$2" ctest_args="$3"
  shift 3
  echo "=== [$label] configure ==="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@" >/dev/null
  echo "=== [$label] build ==="
  cmake --build "$ROOT/$dir" -j "$JOBS"
  echo "=== [$label] test ($ctest_args) ==="
  # --no-tests=error: a label regex that matches nothing is a bug in this
  # script, not a clean leg.
  # shellcheck disable=SC2086
  (cd "$ROOT/$dir" && ctest --output-on-failure --no-tests=error \
    -j "$JOBS" $ctest_args)
}

run_profile build "plain" ""

if [[ "$QUICK" == "0" ]]; then
  # Compile-time concurrency contracts: the whole tree + tests under
  # clang's -Wthread-safety analysis promoted to errors, plus the
  # negative-compile proof that the annotations are live (it only
  # registers as a runnable ctest under a clang toolchain).
  if command -v clang++ >/dev/null 2>&1; then
    run_profile build-clang "clang thread-safety" "" \
      -DCMAKE_CXX_COMPILER=clang++ -DDJ_THREAD_SAFETY=ON
  else
    echo "=== [clang thread-safety] SKIPPED: clang++ not found" \
         "(annotations in src/util/mutex.h compile to no-ops here) ==="
  fi
fi

if [[ "$QUICK" == "0" ]]; then
  # halt_on_error makes a sanitizer finding fail the test instead of just
  # printing; detect_leaks stays off for gtest binaries (gtest's lazy
  # singletons read as leaks and would drown real reports).
  export ASAN_OPTIONS="halt_on_error=1:detect_leaks=0"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

  run_profile build-asan "asan+ubsan" "" -DDJ_SANITIZE="address;undefined"
  run_profile build-tsan "tsan" "-L tsan" -DDJ_SANITIZE="thread"

  # Live-index churn (DESIGN.md §12). The tsan and asan profiles above
  # already cover these tests inside their label/full-suite runs; this leg
  # re-selects them by test-name regex so a mutability regression fails as
  # its own "[churn]" line. Name-based selection is deliberate: one ctest
  # label per test (see tests/CMakeLists.txt — gtest_discover_tests cannot
  # forward list-valued LABELS), so "churn" cannot be a second label.
  echo "=== [churn] TSan churn stress ==="
  (cd "$ROOT/build-tsan" && ctest --output-on-failure --no-tests=error \
    -j "$JOBS" -R "Churn")
  echo "=== [churn] ASan+UBSan crash torture + live-index lifecycle ==="
  (cd "$ROOT/build-asan" && ctest --output-on-failure --no-tests=error \
    -j "$JOBS" -R "ChurnTorture|LiveIndex")

  # Lock discipline (DESIGN.md §10): Debug defaults DJ_LOCK_RANK=ON, so
  # the death label exercises the runtime aborts (rank inversion,
  # re-entry, condvar-with-second-lock), tsan hammers the hook
  # bookkeeping, and lint runs dj_deadlock over fixtures + the real tree.
  # NB: $ctest_args is intentionally word-split in run_profile, so the
  # label regex must stay unquoted (quotes would end up inside the regex
  # and silently select the wrong tests).
  run_profile build-lockrank "lock-rank (Debug)" "-L death|tsan|lint" \
    -DCMAKE_BUILD_TYPE=Debug -DDJ_LOCK_RANK=ON
  echo "=== [lock-rank (Debug)] dj_lockgraph: observed-graph dump ==="
  "$ROOT/build-lockrank/tools/dj_lockgraph" --format=json \
    | python3 -c "import json,sys; d=json.load(sys.stdin); \
print('dj_lockgraph: %d nodes, %d edges' % (len(d['nodes']), len(d['edges'])))"
  "$ROOT/build-lockrank/tools/dj_lockgraph" --format=dot >/dev/null

  # Allocation discipline (DESIGN.md §11): Debug defaults DJ_ALLOC_GUARD=ON,
  # so the death label exercises the ScopedAllocBan aborts, the guarded
  # steady-state search test proves zero allocations per query for real,
  # and lint runs dj_alloc over its fixtures plus the real tree. The
  # dj_stats smoke confirms the guard's process-wide tallies reach the
  # metrics snapshot (a live pipeline allocates, so the count is nonzero).
  run_profile build-allocguard "alloc-guard (Debug)" "-L death|lint" \
    -DCMAKE_BUILD_TYPE=Debug -DDJ_ALLOC_GUARD=ON
  echo "=== [alloc-guard (Debug)] dj_stats: alloc tallies exported ==="
  "$ROOT/build-allocguard/tools/dj_stats" --repo=64 --queries=4 \
      --format=json 2>/dev/null \
    | python3 -c "import json,sys; g=json.load(sys.stdin)['gauges']; \
assert g['dj_alloc_count'] > 0 and g['dj_alloc_bytes'] > 0, g; \
print('dj_stats: dj_alloc_count=%d dj_alloc_bytes=%d' \
% (g['dj_alloc_count'], g['dj_alloc_bytes']))"

  # Serving layer (DESIGN.md §13). Like the churn leg: the tsan/asan
  # profiles already run these inside their label/full-suite runs; this
  # re-selects them by test-name regex so a serving regression fails as
  # its own "[serve]" line.
  echo "=== [serve] TSan serve stress + batcher races ==="
  (cd "$ROOT/build-tsan" && ctest --output-on-failure --no-tests=error \
    -j "$JOBS" -R "Serve")
  echo "=== [serve] ASan+UBSan deadline short-circuit + backpressure + shared scan ==="
  (cd "$ROOT/build-asan" && ctest --output-on-failure --no-tests=error \
    -j "$JOBS" -R "ServeDeadline|ServeBackpressure|ServeBatcher|FlatSharedScan")

  # Optional clang-tidy leg over the checked-in .clang-tidy profile; the
  # plain build exported compile_commands.json.
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== [clang-tidy] src/**.cc with .clang-tidy profile ==="
    find "$ROOT/src" -name '*.cc' -print0 \
      | xargs -0 clang-tidy -p "$ROOT/build" --quiet
  else
    echo "=== [clang-tidy] SKIPPED: clang-tidy not found ==="
  fi
fi

echo "=== check.sh: all profiles clean ==="
