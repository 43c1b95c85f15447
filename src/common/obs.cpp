#include "common/obs.h"

#include <algorithm>

#include "common/error.h"

namespace mandipass::common::obs {

namespace {

/// Upper bound of bucket k in microseconds (2^k); the overflow bucket has
/// no finite bound and is clamped to the observed max by quantile().
double bucket_upper_us(std::size_t k) {
  return static_cast<double>(std::uint64_t{1} << k);
}

}  // namespace

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0 || !(q > 0.0)) {
    return 0.0;
  }
  q = std::min(q, 1.0);
  // Rank of the target sample, 1-based: ceil(q * n).
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  const double observed_max = max_.load(std::memory_order_relaxed);
  std::uint64_t cumulative = 0;
  for (std::size_t k = 0; k < kBucketCount; ++k) {
    cumulative += buckets_[k].load(std::memory_order_relaxed);
    if (cumulative >= target) {
      if (k == kBucketCount - 1) {
        return observed_max;  // overflow bucket: no finite upper bound
      }
      return std::min(bucket_upper_us(k), observed_max);
    }
  }
  // Concurrent record() between the count_ read and the bucket walk can
  // leave the cumulative sum short of target; the max is a safe answer.
  return observed_max;
}

HistogramSnapshot Histogram::snapshot(std::string name) const {
  HistogramSnapshot s;
  s.name = std::move(name);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_us = sum_.load(std::memory_order_relaxed);
  const double mn = min_.load(std::memory_order_relaxed);
  s.min_us = (s.count > 0 && mn != std::numeric_limits<double>::infinity()) ? mn : 0.0;
  s.max_us = max_.load(std::memory_order_relaxed);
  s.p50_us = quantile(0.50);
  s.p95_us = quantile(0.95);
  s.p99_us = quantile(0.99);
  return s;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  MANDIPASS_EXPECTS(!name.empty());
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  MANDIPASS_EXPECTS(!name.empty());
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  MANDIPASS_EXPECTS(!name.empty());
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(h->snapshot(name));
  }
  return snap;
}

void Registry::reset() {
  MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) {
    c->reset();
  }
  for (auto& [name, g] : gauges_) {
    g->reset();
  }
  for (auto& [name, h] : histograms_) {
    h->reset();
  }
}

}  // namespace mandipass::common::obs
