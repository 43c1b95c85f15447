#include "auth/sharded_verifier.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "common/obs.h"

namespace mandipass::auth {

std::uint64_t user_shard_hash(std::string_view user) {
  // FNV-1a 64: tiny, well-distributed for short id strings, and — unlike
  // std::hash — identical on every platform, which makes shard routing a
  // documented, testable function rather than an implementation detail.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : user) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

ShardedVerifier::ShardedVerifier(std::size_t shards, double threshold)
    : cache_(std::make_shared<MatrixCache>()) {
  MANDIPASS_EXPECTS(shards >= 1);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<BatchVerifier>(threshold, cache_));
  }
  MANDIPASS_OBS_GAUGE_SET("auth.shard.shards", shards);
}

void ShardedVerifier::enroll(const std::string& user, StoredTemplate tmpl) {
  shards_[shard_for(user)]->enroll(user, std::move(tmpl));
}

bool ShardedVerifier::revoke(const std::string& user) {
  return shards_[shard_for(user)]->revoke(user);
}

std::optional<StoredTemplate> ShardedVerifier::snapshot(const std::string& user) const {
  return shards_[shard_for(user)]->snapshot(user);
}

std::size_t ShardedVerifier::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->size();
  }
  return total;
}

BatchDecision ShardedVerifier::verify_one(const std::string& user,
                                          std::span<const float> raw_probe) const {
  MANDIPASS_OBS_COUNT("auth.shard.verify_total");
  return shards_[shard_for(user)]->verify_one(user, raw_probe);
}

BatchResult ShardedVerifier::verify_batch(std::span<const VerifyRequest> requests,
                                          common::ThreadPool* pool,
                                          const common::Deadline& deadline) const {
  MANDIPASS_OBS_TRACE(trace_batch, "auth.shard.batch_us");
  using clock = std::chrono::steady_clock;
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::global();

  BatchResult result;
  result.decisions.resize(requests.size());

  // Route: per-shard index lists, in request order. Each index appears in
  // exactly one list, so the shard fan-out below writes disjoint slots of
  // result.decisions and needs no further synchronisation.
  const std::size_t n_shards = shards_.size();
  std::vector<std::vector<std::size_t>> routed(n_shards);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    routed[shard_for(requests[i].user)].push_back(i);
  }

  // Fan out one task per shard (grain 1). A pool lane holds at most one
  // shard lock at a time and the MatrixCache lock is only taken after the
  // shard's snapshot lock is released — no overlapping acquisition order
  // exists, hence no deadlock. The per-shard work is independent of lane
  // assignment, so decisions are identical for any thread count.
  std::vector<CoalesceStats> shard_cs(n_shards);
  std::vector<double> shard_ms(n_shards, 0.0);
  const auto batch_start = clock::now();
  tp.parallel_for(0, n_shards, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      if (routed[s].empty()) {
        continue;
      }
      const auto t0 = clock::now();
      shard_cs[s] = shards_[s]->verify_coalesced(requests, routed[s], result.decisions, deadline);
      shard_ms[s] = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    }
  });
  const double wall_ms =
      std::chrono::duration<double, std::milli>(clock::now() - batch_start).count();

  // Aggregate coalescing accounting after the join, on the caller thread,
  // so counter totals are exact and independent of lane interleaving.
  CoalesceStats total_cs;
  double sum_shard_ms = 0.0;
  double max_amortized_ms = 0.0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    total_cs.groups += shard_cs[s].groups;
    total_cs.coalesced += shard_cs[s].coalesced;
    total_cs.singletons += shard_cs[s].singletons;
    sum_shard_ms += shard_ms[s];
    if (!routed[s].empty()) {
      max_amortized_ms =
          std::max(max_amortized_ms, shard_ms[s] / static_cast<double>(routed[s].size()));
    }
  }
  MANDIPASS_OBS_COUNT_N("auth.shard.verify_total", requests.size());
  MANDIPASS_OBS_COUNT_N("auth.shard.coalesced_groups", total_cs.groups);
  MANDIPASS_OBS_COUNT_N("auth.shard.coalesced_requests", total_cs.coalesced);
  MANDIPASS_OBS_COUNT_N("auth.shard.singleton_requests", total_cs.singletons);

  BatchStats& st = result.stats;
  st = tally(result.decisions, wall_ms);
  if (st.requests > 0) {
    // Coalesced requests have no individual service time; report the
    // amortized per-request cost (shard wall / shard requests) instead.
    st.mean_request_ms = sum_shard_ms / static_cast<double>(st.requests);
    st.max_request_ms = max_amortized_ms;
  }
  return result;
}

double ShardedVerifier::threshold() const { return shards_.front()->threshold(); }

void ShardedVerifier::set_threshold(double t) {
  for (const auto& shard : shards_) {
    shard->set_threshold(t);
  }
}

}  // namespace mandipass::auth
