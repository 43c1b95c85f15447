// common::obs — the observability layer (DESIGN.md §11).
//
// A process-wide registry of named metrics feeding the machine-readable
// bench reports (common/bench_report.h):
//
//   Counter    monotone event count       (relaxed atomic u64)
//   Gauge      last-written point value   (relaxed atomic double)
//   Histogram  latency distribution over fixed power-of-two microsecond
//              buckets, with p50/p95/p99 estimates bounded by one bucket
//              width (quantile(q) returns the upper bound of the bucket
//              holding the q-th sample, clamped to the observed max)
//   TraceScope RAII timer recording its lifetime into a Histogram
//
// Hot-path cost model: registration (Registry::counter/gauge/histogram)
// takes a mutex, so call sites cache the returned reference — the
// MANDIPASS_OBS_* macros below do this with a function-local static. The
// update itself is lock-free: relaxed atomic RMW only. Relaxed ordering is
// sufficient because metrics carry no inter-thread synchronisation
// obligations; totals are exact once the writing threads are joined.
// TraceScope costs two steady_clock reads (~30 ns each), which is
// measurable on microsecond-scale bodies — such sites use
// MANDIPASS_OBS_TRACE_SAMPLED, which times 1 of every 2^k passes and
// charges the rest a single relaxed increment.
//
// One off switch: obs::set_enabled(false) makes TraceScope skip its two
// clock reads (one relaxed bool load remains). Counters and gauges stay
// live so event counts remain deterministic for bench baselines.
//
// Naming convention: "<module>.<component>.<event>", histograms suffixed
// with the unit ("_us"). Metric names passed to the macros must be string
// literals (each macro expansion binds one static reference). The macros
// expand to declarations, so they are valid at block scope only.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace mandipass::common::obs {

/// Point-in-time copy of one counter.
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// Everything the registry knows, sorted by metric name.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

namespace detail {

inline std::atomic<bool> g_enabled{true};

/// Relaxed CAS add for pre-C++20-toolchain-safe atomic<double> updates.
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& target, double value) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                                      std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& target, double value) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (value > cur && !target.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                                      std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Runtime kill switch for TraceScope timing (see file header).
inline bool enabled() noexcept { return detail::g_enabled.load(std::memory_order_relaxed); }
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written point value (e.g. final training accuracy).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram. Bucket k (k >= 1) covers
/// (2^(k-1), 2^k] microseconds; bucket 0 covers [0, 1] µs; the last
/// bucket is the overflow bucket (> 2^(kBucketCount-2) µs ≈ 16.8 s).
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 26;

  void record(double value_us) noexcept {
    if (!(value_us >= 0.0)) {  // also catches NaN
      value_us = 0.0;
    }
    buckets_[bucket_index(value_us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add(sum_, value_us);
    detail::atomic_min(min_, value_us);
    detail::atomic_max(max_, value_us);
  }

  /// Bucket holding `value_us`. Exposed for the unit tests.
  static std::size_t bucket_index(double value_us) noexcept {
    if (!(value_us > 1.0)) {
      return 0;
    }
    if (value_us > static_cast<double>(std::uint64_t{1} << (kBucketCount - 2))) {
      return kBucketCount - 1;
    }
    const auto up = static_cast<std::uint64_t>(std::ceil(value_us));
    return static_cast<std::size_t>(std::bit_width(up - 1));
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// q in (0, 1]. Upper bound of the bucket containing the ceil(q*count)-th
  /// smallest sample, clamped to the observed max — hence at most one
  /// power-of-two bucket width above the true quantile, and monotone in q.
  /// Returns 0 when empty.
  double quantile(double q) const noexcept;

  /// One consistent-enough copy: every atomic is read once; totals may lag
  /// in-flight record() calls by at most those calls.
  HistogramSnapshot snapshot(std::string name) const;

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0.0};
};

/// RAII wall-clock timer recording microseconds into a Histogram. When
/// obs::enabled() is false at construction, the clock is never read.
/// The two-argument form additionally disarms the timer when `armed` is
/// false — MANDIPASS_OBS_TRACE_SAMPLED uses it to time only every 2^k-th
/// pass through a hot call site.
class TraceScope {
 public:
  explicit TraceScope(Histogram& hist) noexcept : TraceScope(hist, true) {}
  TraceScope(Histogram& hist, bool armed) noexcept
      : hist_(armed && enabled() ? &hist : nullptr) {
    if (hist_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~TraceScope() {
    if (hist_ != nullptr) {
      hist_->record(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_{};
};

/// Process-wide metric registry. Lookup/registration takes a mutex; the
/// returned references are stable for the process lifetime (metrics are
/// never deallocated — reset() zeroes values in place). The registration
/// maps are guarded by mutex_ (a compile-time proof under the tsafety
/// preset, DESIGN.md §14); the metric *values* behind the returned
/// references are relaxed atomics and deliberately unguarded.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name) MANDIPASS_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) MANDIPASS_EXCLUDES(mutex_);
  Histogram& histogram(std::string_view name) MANDIPASS_EXCLUDES(mutex_);

  /// Sorted-by-name copy of every registered metric.
  MetricsSnapshot snapshot() const MANDIPASS_EXCLUDES(mutex_);

  /// Zeroes every metric in place; outstanding references stay valid.
  void reset() MANDIPASS_EXCLUDES(mutex_);

 private:
  Registry() = default;

  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      MANDIPASS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_ MANDIPASS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      MANDIPASS_GUARDED_BY(mutex_);
};

/// Registry shorthands (registration cost; cache the reference on hot paths).
inline Counter& counter(std::string_view name) { return Registry::instance().counter(name); }
inline Gauge& gauge(std::string_view name) { return Registry::instance().gauge(name); }
inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

}  // namespace mandipass::common::obs

// Call-site macros. `name` must be a string literal: each expansion caches
// one registry reference in a function-local static, so a name that varies
// at runtime would silently pin the first value seen. Statements only —
// MANDIPASS_OBS_TRACE declares locals, so it cannot be an `if` body
// without braces.
#define MANDIPASS_OBS_COUNT_N(name, n)                                    \
  do {                                                                    \
    static ::mandipass::common::obs::Counter& mandipass_obs_counter_ref = \
        ::mandipass::common::obs::Registry::instance().counter(name);     \
    mandipass_obs_counter_ref.add(static_cast<std::uint64_t>(n));         \
  } while (false)

#define MANDIPASS_OBS_COUNT(name) MANDIPASS_OBS_COUNT_N(name, 1)

#define MANDIPASS_OBS_GAUGE_SET(name, v)                                \
  do {                                                                  \
    static ::mandipass::common::obs::Gauge& mandipass_obs_gauge_ref =   \
        ::mandipass::common::obs::Registry::instance().gauge(name);     \
    mandipass_obs_gauge_ref.set(static_cast<double>(v));                \
  } while (false)

#define MANDIPASS_OBS_TRACE(var, name)                                       \
  static ::mandipass::common::obs::Histogram& var##_obs_hist =               \
      ::mandipass::common::obs::Registry::instance().histogram(name);        \
  ::mandipass::common::obs::TraceScope var(var##_obs_hist)

// Sampled variant for call sites hot enough that two clock reads per call
// are measurable (microsecond-scale bodies): times 1 of every
// 2^period_log2 passes, starting with the very first (so a site exercised
// once still records once, keeping single-shot bench baselines
// deterministic). The skipped passes pay one relaxed fetch_add.
#define MANDIPASS_OBS_TRACE_SAMPLED(var, name, period_log2)                  \
  static ::mandipass::common::obs::Histogram& var##_obs_hist =               \
      ::mandipass::common::obs::Registry::instance().histogram(name);        \
  static ::std::atomic<::std::uint64_t> var##_obs_tick{0};                   \
  ::mandipass::common::obs::TraceScope var(                                  \
      var##_obs_hist,                                                        \
      (var##_obs_tick.fetch_add(1, ::std::memory_order_relaxed) &            \
       ((::std::uint64_t{1} << (period_log2)) - ::std::uint64_t{1})) == 0)
