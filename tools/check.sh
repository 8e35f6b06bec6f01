#!/usr/bin/env bash
# Full correctness matrix for the DeepJoin tree (see DESIGN.md,
# "Correctness tooling"):
#
#   1. plain build          + full ctest suite (includes the lint label:
#                             dj_lint, dj_header_check, their self-tests,
#                             the dj_lockgraph / dj_stats guard smokes;
#                             the kernel tier checks: kernels_test under
#                             DJ_FORCE_SCALAR_KERNELS=1 and the
#                             encoder_probe dump diffs, see util/kernels.h;
#                             and, in every tree, the lock-rank and
#                             allocation-ban runtime checks, because every
#                             test binary links dj_guard)
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
#   4b. serve leg           + the serving-layer suites re-run by name: the
#                             open-loop serve stress (clients racing the
#                             dispatcher and a live mutator) under TSan,
#                             and the deadline short-circuit / backpressure
#                             / shared-scan / StreamScan (served and
#                             SearchBatch) suites under ASan+UBSan
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
  echo "=== [churn] ASan+UBSan crash torture + live-index lifecycle + live-store WAL torture ==="
  (cd "$ROOT/build-asan" && ctest --output-on-failure --no-tests=error \
    -j "$JOBS" -R "ChurnTorture|LiveIndex|LiveStore")

  # Serving layer (DESIGN.md §13). Like the churn leg: the tsan/asan
  # profiles already run these inside their label/full-suite runs; this
  # re-selects them by test-name regex so a serving regression fails as
  # its own "[serve]" line.
  echo "=== [serve] TSan serve stress + batcher races ==="
  (cd "$ROOT/build-tsan" && ctest --output-on-failure --no-tests=error \
    -j "$JOBS" -R "Serve")
  echo "=== [serve] ASan+UBSan deadline short-circuit + backpressure + shared scan + StreamScan ==="
  (cd "$ROOT/build-asan" && ctest --output-on-failure --no-tests=error \
    -j "$JOBS" -R "ServeDeadline|ServeBackpressure|ServeBatcher|FlatSharedScan|StreamScan")

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
