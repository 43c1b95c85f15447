#!/usr/bin/env bash
# The one definition of every CI job. Each .github/workflows/ci.yml job
# installs its dependencies and runs `scripts/ci.sh <job>`;
# scripts/check.sh runs its subset of the jobs through this script too.
#
# Usage:
#   scripts/ci.sh            # every job, in the order below
#   scripts/ci.sh JOB...     # only the named jobs, in the order given
#
# Every named job runs even after an earlier one fails, so one red job
# cannot hide the results of the jobs after it; the script prints a
# summary and exits non-zero if any job failed. Jobs that share a build
# tree only rebuild what is stale: bench-smoke reuses build-werror's
# build/, native-vs-generic reuses no-simd's build-generic/, and fault
# and chaos-asan reuse sanitize's build-asan/.
set -uo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"
JOBS="$(nproc 2>/dev/null || echo 2)"

ALL_JOBS=(build-werror bench-smoke perfbench dead-code no-simd native-vs-generic fault
  sanitize chaos-asan clang-tidy tsafety mandilint)

# The quick benches whose counters are deterministic and gated exactly.
# bench_throughput is left out: its counters come from timed loops.
# bench_quantized is left out: its plan_2x_over_scalar verdict is a
# timing ratio, which a portable build need not reach.
DECISION_BENCHES=(bench_fig5_onset bench_faults bench_service bench_attacks bench_chaos)

job_build_werror() {
  cmake --preset default >/dev/null &&
    cmake --build --preset default -j "$JOBS" &&
    ctest --preset default -j "$JOBS"
}

# Every quick-mode bench with --json, each report gated by bench_compare
# against its committed baseline (counters and verdicts; latency is
# machine-specific). bench_smoke.sh runs every bench and compare before
# it fails.
job_bench_smoke() {
  cmake --preset default >/dev/null &&
    cmake --build --preset default -j "$JOBS" --target "${DECISION_BENCHES[@]}" \
      bench_throughput bench_quantized bench_compare &&
    scripts/bench_smoke.sh
}

# perfbench/ (run by BENCHMARK.json) is a stand-alone CMake project over
# the library targets that drives the public auth/core entry points;
# building it catches an API change that would break the benchmark, and
# its self-test checks tapes, percentile rule and metric catalogue. Each
# workload then runs briefly: it checks every decision bit for bit
# against its public-call oracle and exits 1 on a mismatch. That exit
# code is the gate; the printed figures are machine-specific.
job_perfbench() {
  CARGO_TARGET_DIR=build python3 perfbench/run.py --test || return 1
  local w
  for w in device_e2e service_epoch_hot service_peruser_keys; do
    CARGO_TARGET_DIR=build python3 perfbench/run.py --workload "$w" --seed 1 \
      --seconds 2 --trace 0 || return 1
  done
}

# Every library function some product binary keeps, or a reason on the
# allowlist. build-deadcode/ holds every product binary (benches, examples,
# tools, no tests) plus perfbench's stand-alone project, each function in
# its own section and none inlined, linked with --gc-sections: a function
# no binary calls is then dropped from all of them. tools/lint/deadcode.py
# finds the archives and executables in the tree, so a new bench is
# scanned without editing this job, and fails naming each library symbol
# no binary keeps that tools/lint/deadcode_allowlist.txt does not list,
# and each allowlist entry that no longer names one.
job_dead_code() {
  local flags=("-DCMAKE_CXX_FLAGS=-ffunction-sections -fno-inline"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
  cmake -B build-deadcode -S . -DMANDIPASS_BUILD_TESTS=OFF "${flags[@]}" >/dev/null &&
    cmake --build build-deadcode -j "$JOBS" &&
    cmake -S perfbench -B build-deadcode/perfbench "${flags[@]}" >/dev/null &&
    cmake --build build-deadcode/perfbench -j "$JOBS" --target perfbench &&
    python3 tools/lint/deadcode.py build-deadcode
}

configure_generic() {
  cmake -B build-generic -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMANDIPASS_WARNINGS_AS_ERRORS=ON -DMANDIPASS_FORCE_GENERIC_KERNELS=ON >/dev/null
}

# The portable kernels — the generic int32 int8 tier, the contract the
# SIMD tiers are checked against, and the float PackedGemm without
# -march=native — pass the full suite on their own, as on a target with
# no usable SIMD. The perf label carries the cross-tier equivalence and
# extractor bit-identity tests; under this flag quantized_kernel_tiers()
# is exactly {generic}.
job_no_simd() {
  configure_generic &&
    cmake --build build-generic -j "$JOBS" &&
    (cd build-generic && ctest --output-on-failure -j "$JOBS")
}

# The forced-generic build (no -march=native, no SIMD kernel tier)
# reaches the gated decisions the committed baselines hold: the
# counter-gated quick benches run in build-generic/ and bench_compare
# holds each report to its baseline at zero counter tolerance. bench-smoke
# holds the native build to the same baselines, so together they fail
# whenever a gated counter depends on codegen (vector width, FMA, kernel
# tier).
job_native_vs_generic() {
  configure_generic &&
    cmake --build build-generic -j "$JOBS" --target "${DECISION_BENCHES[@]}" bench_compare ||
    return 1
  local b report rc=0
  for b in "${DECISION_BENCHES[@]}"; do
    report="build-generic/BENCH_$b.json"
    rm -f "$report"  # a run that crashes writes no report; never compare a stale one
    MANDIPASS_BENCH_QUICK=1 "build-generic/bench/$b" --json "$report" >/dev/null || rc=1
    build-generic/tools/bench_compare --skip-latency "bench/baselines/$b.quick.json" "$report" ||
      rc=1
  done
  return "$rc"
}

# Deterministic fault injection, graceful degradation and crash-safe
# persistence (DESIGN.md section 12) under ASan+UBSan: the recovery
# paths themselves are memory-clean (torn writes, backup restores,
# NaN-poisoned streams).
job_fault() {
  cmake --preset asan >/dev/null &&
    cmake --build --preset asan -j "$JOBS" --target test_fault &&
    ctest --preset asan -L fault --output-on-failure
}

# ASan+UBSan (the preset excludes only the golden label: golden fixtures
# pin numerics, not memory behaviour; the stress suites do run, since a
# use-after-free in a coalesced tile or snapshot would hide there), then
# TSan over the full suite. TSan runs even when ASan failed.
job_sanitize() {
  local rc=0
  { cmake --preset asan >/dev/null &&
    cmake --build --preset asan -j "$JOBS" &&
    ctest --preset asan -j "$JOBS"; } || rc=1
  { cmake --preset tsan >/dev/null &&
    cmake --build --preset tsan -j "$JOBS" &&
    ctest --preset tsan -j "$JOBS"; } || rc=1
  return "$rc"
}

# Chaos storm under ASan+UBSan: the asan preset builds without benches,
# so re-enable just bench_chaos and gate on its resilience exit verdicts
# (no crash, bounded shed, bounded admitted-p99 under a stalled shard,
# full recovery). No baseline compare here — bench-smoke gates the
# counters exactly; this job proves the overload/degraded/recovery paths
# are memory-clean while faults are firing.
job_chaos_asan() {
  cmake --preset asan -DMANDIPASS_BUILD_BENCH=ON >/dev/null &&
    cmake --build --preset asan -j "$JOBS" --target bench_chaos &&
    build-asan/bench/bench_chaos --quick
}

job_clang_tidy() { scripts/run_tidy.sh; }
# Builds just the library under -Werror=thread-safety, so a mis-locked
# access to any MANDIPASS_GUARDED_BY member fails the build (DESIGN.md
# section 14).
job_tsafety() { scripts/tsafety.sh; }
job_mandilint() { scripts/lint.sh; }

if [ "$#" -eq 0 ]; then
  set -- "${ALL_JOBS[@]}"
fi
for name in "$@"; do
  if ! declare -F "job_${name//-/_}" >/dev/null; then
    echo "ci.sh: unknown job '$name' (jobs: ${ALL_JOBS[*]})" >&2
    exit 2
  fi
done

declare -A STATUS
for name in "$@"; do
  echo
  echo "==== ci job: $name ===="
  if "job_${name//-/_}"; then
    STATUS[$name]=ok
  else
    STATUS[$name]=FAILED
  fi
done

echo
echo "==== ci summary ===="
FAIL=0
for name in "$@"; do
  echo "  $name: ${STATUS[$name]}"
  [ "${STATUS[$name]}" = ok ] || FAIL=1
done
exit "$FAIL"
