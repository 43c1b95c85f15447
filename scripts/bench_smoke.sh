#!/usr/bin/env bash
# Quick-mode bench smoke: runs every gated bench with --json into build/
# and compares each report against its committed baseline with
# bench_compare (counters and verdicts only; latency is machine-specific).
#
# Every bench runs and every report is compared even after a failure, so
# one red gate cannot hide the verdicts of the benches after it; the
# script exits non-zero at the end if any run or compare failed, naming
# each one.
#
# Usage (after building the default preset into build/):
#   scripts/bench_smoke.sh
set -uo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"

FAILED=()

# gate NAME [extra bench_compare flags...]
gate() {
  local name="$1"
  shift
  local report="build/BENCH_$name.json"
  # A run that crashes writes no report; never compare a stale one.
  rm -f "$report"
  MANDIPASS_BENCH_QUICK=1 "build/bench/$name" --json "$report" || FAILED+=("$name")
  build/tools/bench_compare --skip-latency "$@" \
    "bench/baselines/$name.quick.json" "$report" || FAILED+=("bench_compare $name")
}

gate bench_fig5_onset
gate bench_faults
# bench_throughput's counters come from timed loops (iteration counts are
# machine-dependent), so only its verdicts are gated — the important ones
# being the compiled plan's 1e-5 equivalence and >= 2x speedup.
gate bench_throughput --skip-counters
# bench_service's op tapes are fixed (per-thread fixed op counts, serial
# cache prewarm), so its counters — including the shard-invariance and
# coalescing verdicts — are machine-invariant and stay gated.
gate bench_service
# bench_attacks trains its quick extractor inline (no model cache) and the
# scenario matrix is serial, so the per-cell attack counters and security
# verdicts gate exactly.
gate bench_attacks
# bench_chaos drives the resilient engine through scripted fault storms on
# fixed request tapes with a virtual clock, so shed/expired/degraded
# counters and the resilience exit verdicts gate exactly; wall-clock
# latency gauges are not compared.
gate bench_chaos
# bench_quantized trains its quick extractor inline and runs fixed probe
# counts, so its counters and the int8-plan verdicts (tier bit-identity,
# drift/EER bounds, >= 2x scalar speedup) gate exactly; timing feeds
# gauges, which are not compared, and counter keys never name a kernel
# tier.
gate bench_quantized

if [ "${#FAILED[@]}" -ne 0 ]; then
  echo "bench_smoke: FAILED: ${FAILED[*]}" >&2
  exit 1
fi
echo "bench_smoke: every bench ran and matched its baseline"
