#!/usr/bin/env bash
# The single correctness gate. Runs, in order:
#
#   1. default preset: RelWithDebInfo build with the strict warning set and
#      MANDIPASS_WARNINGS_AS_ERRORS=ON, then the full ctest suite
#   2. bench smoke:    quick-mode bench_fig5_onset --json, gated by
#      bench_compare against the committed baseline (counters/verdicts
#      only; latency is machine-specific)
#   3. serving benchmark: perfbench/run.py --test builds perfbench from
#      source into build/perfbench and runs its self-test
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
# Exits non-zero on the first failing step.
set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"

FAST=0
if [ "${1:-}" = "--fast" ]; then
  FAST=1
fi

JOBS="$(nproc 2>/dev/null || echo 2)"

step() {
  echo
  echo "==== check.sh: $* ===="
}

step "default build (warnings-as-errors) + ctest"
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

step "bench smoke + bench_compare vs committed baseline"
MANDIPASS_BENCH_QUICK=1 build/bench/bench_fig5_onset --json build/BENCH_bench_fig5_onset.json
build/tools/bench_compare --skip-latency \
  bench/baselines/bench_fig5_onset.quick.json build/BENCH_bench_fig5_onset.json
MANDIPASS_BENCH_QUICK=1 build/bench/bench_faults --json build/BENCH_bench_faults.json
build/tools/bench_compare --skip-latency \
  bench/baselines/bench_faults.quick.json build/BENCH_bench_faults.json
# bench_throughput's counters come from timed loops (iteration counts are
# machine-dependent), so only its verdicts are gated — the important ones
# being the compiled plan's 1e-5 equivalence and >= 2x speedup.
MANDIPASS_BENCH_QUICK=1 build/bench/bench_throughput --json build/BENCH_bench_throughput.json
build/tools/bench_compare --skip-latency --skip-counters \
  bench/baselines/bench_throughput.quick.json build/BENCH_bench_throughput.json
# bench_service's op tapes are fixed (per-thread fixed op counts, serial
# cache prewarm), so its counters ARE machine-invariant and stay gated;
# only latency histograms are skipped.
MANDIPASS_BENCH_QUICK=1 build/bench/bench_service --json build/BENCH_bench_service.json
build/tools/bench_compare --skip-latency \
  bench/baselines/bench_service.quick.json build/BENCH_bench_service.json
# bench_attacks trains its quick extractor inline (no model cache) and the
# scenario matrix is serial, so the per-cell attack counters and security
# verdicts gate exactly.
MANDIPASS_BENCH_QUICK=1 build/bench/bench_attacks --json build/BENCH_bench_attacks.json
build/tools/bench_compare --skip-latency \
  bench/baselines/bench_attacks.quick.json build/BENCH_bench_attacks.json
# bench_chaos drives the resilient engine through scripted fault storms on
# fixed request tapes with a virtual clock, so shed/expired/degraded
# counters and the resilience exit verdicts gate exactly; wall-clock
# latency gauges are not compared.
MANDIPASS_BENCH_QUICK=1 build/bench/bench_chaos --json build/BENCH_bench_chaos.json
build/tools/bench_compare --skip-latency \
  bench/baselines/bench_chaos.quick.json build/BENCH_bench_chaos.json
# bench_quantized trains its quick extractor inline and runs fixed probe
# counts, so its counters and the int8-plan verdicts (tier bit-identity,
# drift/EER bounds, >= 2x scalar speedup) gate exactly.
MANDIPASS_BENCH_QUICK=1 build/bench/bench_quantized --json build/BENCH_bench_quantized.json
build/tools/bench_compare --skip-latency \
  bench/baselines/bench_quantized.quick.json build/BENCH_bench_quantized.json

# perfbench/ (run by BENCHMARK.json) is a stand-alone CMake project over
# the library targets and calls the public auth/core entry points, so
# building it here catches an API change that would break the benchmark.
step "serving benchmark build + self-test"
CARGO_TARGET_DIR=build python3 perfbench/run.py --test

if [ "$FAST" -eq 0 ]; then
  step "ASan+UBSan build + ctest"
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$JOBS"
  ctest --preset asan -j "$JOBS"

  step "TSan build + ctest"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS"
  ctest --preset tsan -j "$JOBS"
else
  step "sanitizer builds SKIPPED (--fast)"
fi

step "clang-tidy"
scripts/run_tidy.sh

step "thread-safety analysis"
scripts/tsafety.sh

step "mandilint"
scripts/lint.sh

echo
echo "check.sh: all gates passed"
