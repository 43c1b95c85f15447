#!/usr/bin/env bash
# The single correctness gate. Runs, in order:
#
#   1. default preset: RelWithDebInfo build with the strict warning set and
#      MANDIPASS_WARNINGS_AS_ERRORS=ON, then the full ctest suite
#   2. bench smoke:    scripts/bench_smoke.sh runs every quick-mode bench
#      with --json and gates each report with bench_compare against its
#      committed baseline (counters/verdicts only; latency is
#      machine-specific); it runs them all before failing the step
#   3. serving benchmark: perfbench/run.py --test builds perfbench from
#      source into build/perfbench and runs its self-test, then runs each
#      workload for 2 s, gated on the exit code of its decision oracle
#   4. asan preset:    ASan+UBSan instrumented build + ctest
#   5. tsan preset:    TSan instrumented build + ctest
#   6. clang-tidy over src/ (skipped if clang-tidy is not installed)
#   7. Clang thread-safety capability analysis (tsafety preset; skipped
#      if clang++ is not installed)
#   8. mandilint repo-invariant linter
#
# Usage:
#   scripts/check.sh           # everything
#   scripts/check.sh --fast    # skip the sanitizer builds (steps 4-5)
#
# Every step runs even after an earlier one fails, so one red gate cannot
# hide the results of the gates after it; the script exits non-zero at
# the end if any step failed, naming each one.
set -uo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"

FAST=0
if [ "${1:-}" = "--fast" ]; then
  FAST=1
fi

JOBS="$(nproc 2>/dev/null || echo 2)"

FAILED=()

# run_step NAME CMD...: runs one gate; a failure is recorded, not fatal.
run_step() {
  local name="$1"
  shift
  echo
  echo "==== check.sh: $name ===="
  "$@" || FAILED+=("$name")
}

step_default() {
  cmake --preset default >/dev/null &&
    cmake --build --preset default -j "$JOBS" &&
    ctest --preset default -j "$JOBS"
}

# perfbench/ (run by BENCHMARK.json) is a stand-alone CMake project over
# the library targets and calls the public auth/core entry points, so
# building it here catches an API change that would break the benchmark.
# Each workload exits 1 when any decision differs from its public-call
# oracle; that exit code is the gate, never the printed figures.
step_perfbench() {
  CARGO_TARGET_DIR=build python3 perfbench/run.py --test || return 1
  local w
  for w in device_e2e service_epoch_hot service_peruser_keys; do
    CARGO_TARGET_DIR=build python3 perfbench/run.py --workload "$w" --seed 1 \
      --seconds 2 --trace 0 || return 1
  done
}

step_asan() {
  cmake --preset asan >/dev/null &&
    cmake --build --preset asan -j "$JOBS" &&
    ctest --preset asan -j "$JOBS"
}

step_tsan() {
  cmake --preset tsan >/dev/null &&
    cmake --build --preset tsan -j "$JOBS" &&
    ctest --preset tsan -j "$JOBS"
}

run_step "default build (warnings-as-errors) + ctest" step_default
run_step "bench smoke + bench_compare vs committed baselines" scripts/bench_smoke.sh
run_step "serving benchmark build + self-test + oracle runs" step_perfbench
if [ "$FAST" -eq 0 ]; then
  run_step "ASan+UBSan build + ctest" step_asan
  run_step "TSan build + ctest" step_tsan
else
  echo
  echo "==== check.sh: sanitizer builds SKIPPED (--fast) ===="
fi
run_step "clang-tidy" scripts/run_tidy.sh
run_step "thread-safety analysis" scripts/tsafety.sh
run_step "mandilint" scripts/lint.sh

echo
if [ "${#FAILED[@]}" -ne 0 ]; then
  echo "check.sh: FAILED steps:" >&2
  for name in "${FAILED[@]}"; do
    echo "  - $name" >&2
  done
  exit 1
fi
echo "check.sh: all gates passed"
