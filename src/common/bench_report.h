// Versioned machine-readable bench output (the BENCH_*.json schema) and
// the regression-compare logic behind tools/bench_compare.
//
// Every bench linked against bench_common emits one BenchReport per run
// when invoked with --json: run metadata (bench name, git sha, thread
// count, quick/full scale), wall and CPU time, a full common::obs metric
// snapshot, and a list of named reproduction-shape verdicts (pass/fail
// claims such as "EER below paper bound"). compare_reports() diffs two
// reports and flags regressions beyond per-metric tolerances; it is the
// machine gate that scripts/check.sh and CI run against a committed
// baseline.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/obs.h"

namespace mandipass::common {

/// Bump when the JSON layout changes incompatibly. compare_reports()
/// refuses to diff reports with mismatched schema versions.
inline constexpr std::int64_t kBenchSchemaVersion = 1;

/// A named pass/fail claim a bench makes about reproduction shape
/// (e.g. "onset detected", "overhead below 2%").
struct BenchVerdict {
  std::string name;
  bool pass = false;
  std::string detail;  ///< human-readable evidence, not compared
};

/// One bench run, as serialised to BENCH_<name>.json.
struct BenchReport {
  std::int64_t schema = kBenchSchemaVersion;
  std::string bench;          ///< binary name, e.g. "bench_fig5_onset"
  std::string git_sha;        ///< short sha at build time, or "unknown"
  std::int64_t threads = 1;   ///< --threads value the run used
  bool quick = false;         ///< MANDIPASS_BENCH_QUICK scale
  double wall_s = 0.0;        ///< steady-clock wall time of the whole run
  double cpu_s = 0.0;         ///< process CPU time of the whole run
  obs::MetricsSnapshot metrics;
  std::vector<BenchVerdict> verdicts;
};

/// Serialises a report to the schema-v1 JSON document (pretty-printed).
std::string report_to_json(const BenchReport& report);

/// Parses a schema-v1 JSON document; throws SerializationError on
/// malformed input, missing fields, or an unsupported schema version.
BenchReport report_from_json(std::string_view text);

/// Writes report_to_json() to `path` (plus trailing newline); throws
/// SerializationError when the file cannot be written.
void write_report(const BenchReport& report, const std::string& path);

/// Reads and parses a report file; throws SerializationError on I/O or
/// parse failure.
BenchReport read_report(const std::string& path);

/// Tolerances for compare_reports(). Latency metrics (histogram p50/p95
/// and wall_s) tolerate `latency_tol` relative growth plus
/// `latency_slack_us` absolute slack (so nanosecond-scale timers don't
/// flag on scheduler noise). Counters must match within `counter_tol`
/// relative difference (default exact). Per-metric overrides in
/// `metric_tol` win over both defaults.
struct CompareOptions {
  double latency_tol = 0.50;    ///< +50% default latency budget
  double counter_tol = 0.0;     ///< counters exact by default
  double latency_slack_us = 5.0;
  bool skip_latency = false;    ///< for cross-machine baselines
  bool skip_counters = false;
  std::map<std::string, double, std::less<>> metric_tol;
};

/// Outcome of a baseline-vs-current diff.
struct CompareResult {
  bool regression = false;  ///< at least one metric beyond tolerance
  bool error = false;       ///< reports not comparable (schema/bench mismatch)
  std::vector<std::string> messages;

  /// 0 clean, 1 regression, 2 not-comparable — the bench_compare CLI exit.
  int exit_code() const { return error ? 2 : (regression ? 1 : 0); }
};

/// Diffs `current` against `baseline`. Regressions: a verdict that was
/// passing and is now failing or missing; a counter outside tolerance,
/// missing from the current report, or new in it (absent from the
/// baseline); a latency quantile or wall time beyond the latency budget.
/// Gauges and run metadata (git sha, threads, CPU time) are
/// informational only.
CompareResult compare_reports(const BenchReport& baseline,
                              const BenchReport& current,
                              const CompareOptions& options);

}  // namespace mandipass::common
