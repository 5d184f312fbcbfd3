#!/usr/bin/env bash
# Local tier-1 gate, mirroring CI: build + ctest in Release (strict:
# -Werror, plus a clang-format check when the binary is available) and
# under each sanitizer. Run from anywhere; builds land in
# <repo>/build-check-*.
#
#   scripts/check.sh            # Release + address + thread + undefined
#                               # + coverage
#   scripts/check.sh release    # just the strict Release leg
#   scripts/check.sh thread     # just the TSan leg (parallel/chaos paths)
#   scripts/check.sh undefined  # just the UBSan leg (overload/admission math)
#   scripts/check.sh coverage   # gcov leg + line-coverage floor
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
legs=("${@:-release}")
if [ "$#" -eq 0 ]; then
  legs=(release address thread undefined coverage)
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Hang backstop: per-test TIMEOUTs (tests/CMakeLists.txt) make a deadlocked
# test fail, and this outer wall-clock guard makes a wedged ctest process
# itself fail rather than hang the whole check. Skipped gracefully where
# coreutils `timeout` is unavailable.
ctest_wall_clock_budget="${TEXTJOIN_CTEST_BUDGET_SECONDS:-1800}"
run_ctest() {
  if command -v timeout >/dev/null 2>&1; then
    timeout --kill-after=30 "$ctest_wall_clock_budget" ctest "$@"
  else
    ctest "$@"
  fi
}

# Formatting gate, mirroring the CI strict job. Skipped gracefully when no
# clang-format is installed (the compile legs still run).
if command -v clang-format >/dev/null 2>&1; then
  echo "==> clang-format check"
  (cd "$repo" && git ls-files '*.h' '*.cc' '*.cpp' |
    xargs clang-format --dry-run --Werror)
else
  echo "==> clang-format not found; skipping format check"
fi

for leg in "${legs[@]}"; do
  case "$leg" in
    release)
      build="$repo/build-check-release"
      cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
        -DTEXTJOIN_SANITIZE= -DTEXTJOIN_WERROR=ON
      ;;
    address | thread | undefined)
      build="$repo/build-check-$leg"
      cmake -B "$build" -S "$repo" -DTEXTJOIN_SANITIZE="$leg"
      ;;
    coverage)
      build="$repo/build-check-coverage"
      cmake -B "$build" -S "$repo" -DTEXTJOIN_SANITIZE= -DTEXTJOIN_COVERAGE=ON
      ;;
    *)
      echo "unknown leg '$leg' (want: release, address, thread, undefined," \
        "coverage)" >&2
      exit 2
      ;;
  esac
  echo "==> [$leg] building"
  cmake --build "$build" -j "$jobs"
  if [ "$leg" = coverage ]; then
    # Counts from earlier runs (and from sources since deleted) would
    # otherwise be merged into this run's report.
    find "$build" -name '*.gcda' -delete
  fi
  echo "==> [$leg] testing"
  run_ctest --test-dir "$build" --output-on-failure -j "$jobs"
  if [ "$leg" = release ]; then
    # The schedule-sensitive determinism grids (sharding, pipeline,
    # cancellation, mutation), the deadline-shed, executor-cancel and
    # probe-reducer tests (overload, join methods), the cache's flight
    # handoff and shared-cache stress tests (cache), the multi-relation
    # plan parity grid at parallelism 1/4/8 (plan parity), the plan
    # cache's 8-thread stress mix (plan cache) and the golden-explain wall,
    # which renders every composition at parallelism 1/4/8 (golden
    # explain), repeated on top of the single pass above so that a test
    # whose outcome depends on the thread schedule fails here rather than
    # once in a few hundred runs.
    echo "==> [release] determinism grids, repeated until failure (50x)"
    run_ctest --test-dir "$build" --output-on-failure \
      -R 'sharding_test|pipeline_test|cancel_test|mutation_service_test|overload_test|join_methods_test|cache_test|plan_parity_test|plan_cache_test|golden_explain_test' \
      --repeat until-fail:50 -j "$jobs"
    echo "==> [release] shard scaling gate"
    "$build/bench/bench_shard_scaling"
    echo "==> [release] cancellation gates"
    "$build/bench/bench_cancellation"
    # Vectorized perf smoke (DESIGN.md §14): block-compressed vs the flat
    # reference kernels of tests/support on identical inputs, gated on the
    # geometric-mean speedup (3x target, 1.5x hard floor as the noise
    # backstop); Q5's relational join with its residual selected per batch
    # by Expr::Select vs evaluated per row on the scratch-row path it
    # replaced (3x target, 1.1x hard floor); Q1's scan filter comparing
    # dictionary codes vs the same filter on values (4x target, 2x hard
    # floor); and Explain of each paper query on a plan-cache hit (at most
    # 5 us per call). Also refreshes the machine-readable
    # BENCH_vectorized.json snapshot.
    echo "==> [release] vectorized perf smoke (block vs reference kernels," \
      "batch residual vs scratch row, coded vs values scan filter," \
      "plan-cache hit)"
    "$build/bench/bench_micro" --perf_smoke \
      --snapshot_path="$build/BENCH_vectorized.json"
    # Multi-tenant fairness gates (DESIGN.md §15): quiet tenants keep
    # >= 85% of isolated goodput under an 8x-greedy flood, bounded
    # tenancy tax, open-loop session conservation. The golden-explain
    # wall itself (golden_explain_test + golden_hygiene_test) runs in
    # every ctest pass above; regenerate goldens ONLY with
    # scripts/update_goldens.sh.
    echo "==> [release] multi-tenant fairness gates"
    "$build/bench/bench_multitenant"
    # Live-mutation gates (DESIGN.md §16): read-only snapshot overhead
    # vs a frozen engine, and query throughput while a writer churns and
    # the merge worker folds deltas behind it. The snapshot-consistency
    # grid itself (live_corpus_test + mutation_service_test) runs in
    # every ctest pass above, including the sanitizer legs.
    echo "==> [release] live-mutation gates (snapshot overhead + merge churn)"
    "$build/bench/bench_live_mutation"
    # The repository benchmark's own unit tests (perfbench/README.md). It
    # builds perfbench/ into $CARGO_TARGET_DIR/perfbench, or
    # <repo>/.bench_build/perfbench when the variable is unset.
    echo "==> [release] benchmark self-test (perfbench)"
    (cd "$repo" && python3 perfbench/run.py --self-test)
    # The parent/change pairs tool (scripts/perf_pairs.py) on canned
    # perfbench output: parsing, quartiles, win counts, per-query floors.
    echo "==> [release] pairs tool self-test"
    python3 "$repo/scripts/perf_pairs.py" --self-test
    # The examples smoke, as in CI: every example runs to completion, and
    # the shell drives its \demo tour (EXPLAIN ANALYZE included) and \quit
    # from stdin, which the others ignore.
    echo "==> [release] examples smoke run"
    for e in "$build"/examples/*; do
      if [ -f "$e" ] && [ -x "$e" ]; then
        "$e" <<< $'\\demo\n\\quit'
      fi
    done
  fi
  if [ "$leg" = coverage ]; then
    echo "==> [coverage] line-coverage floor"
    python3 "$repo/scripts/coverage_report.py" --build-dir "$build" \
      --out "$build/coverage.json"
  fi
done

echo "All checks passed: ${legs[*]}"
