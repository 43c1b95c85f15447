#!/usr/bin/env bash
# The single correctness gate: runs these scripts/ci.sh jobs, in order
# (each job's commands live in ci.sh only):
#
#   build-werror   default preset: RelWithDebInfo build with the strict
#                  warning set and MANDIPASS_WARNINGS_AS_ERRORS=ON, then
#                  the full ctest suite
#   bench-smoke    scripts/bench_smoke.sh runs every quick-mode bench with
#                  --json and gates each report with bench_compare against
#                  its committed baseline (counters/verdicts only; latency
#                  is machine-specific); it runs them all before failing
#   perfbench      perfbench/run.py --test builds perfbench from source
#                  into build/perfbench and runs its self-test, then runs
#                  each workload for 2 s, gated on the exit code of its
#                  decision oracle
#   dead-code      builds every product binary into build-deadcode/ with
#                  --gc-sections and fails on a library function none of
#                  them keeps, unless tools/lint/deadcode_allowlist.txt
#                  gives a reason for it
#   sanitize       ASan+UBSan preset build + ctest, then TSan
#   clang-tidy     over src/ (skipped if clang-tidy is not installed)
#   tsafety        Clang thread-safety capability analysis (skipped if
#                  clang++ is not installed)
#   mandilint      repo-invariant linter
#
# Usage:
#   scripts/check.sh           # everything
#   scripts/check.sh --fast    # skip the sanitizer builds
#
# Every job runs even after an earlier one fails, so one red gate cannot
# hide the results of the gates after it; ci.sh exits non-zero at the end
# if any job failed, naming each one.
set -uo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

JOBS_TO_RUN=(build-werror bench-smoke perfbench dead-code sanitize clang-tidy tsafety mandilint)
if [ "${1:-}" = "--fast" ]; then
  JOBS_TO_RUN=(build-werror bench-smoke perfbench dead-code clang-tidy tsafety mandilint)
  echo "check.sh: sanitizer builds SKIPPED (--fast)"
fi
exec "$REPO/scripts/ci.sh" "${JOBS_TO_RUN[@]}"
