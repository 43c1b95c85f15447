#include "auth/sharded_verifier.h"

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
  // Route: per-shard index lists, in request order.
  std::vector<ShardWork> work(shards_.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    work[shard_for(requests[i].user)].indices.push_back(i);
  }
  BatchResult result;
  result.decisions.resize(requests.size());
  serve(requests, work, result.decisions, pool, deadline);
  result.stats = tally(result.decisions);
  return result;
}

void ShardedVerifier::serve(std::span<const VerifyRequest> requests,
                            std::span<const ShardWork> work, std::span<BatchDecision> decisions,
                            common::ThreadPool* pool, const common::Deadline& deadline) const {
  MANDIPASS_EXPECTS(work.size() == shards_.size());
  // Prepare every shard that has work on the calling thread, one shard
  // lock at a time, so every snapshot window of the call has closed
  // before decide makes its first cache call (DESIGN.md §15.3).
  std::vector<PreparedShard> prepared;
  std::size_t routed = 0;
  for (std::size_t s = 0; s < work.size(); ++s) {
    if (!work[s].indices.empty()) {
      prepared.push_back(
          shards_[s]->prepare(requests, work[s].indices, decisions, deadline, work[s].degraded));
      routed += work[s].indices.size();
    }
  }
  // The call's one fan-out: one task per distinct key, over the pool only
  // when more than one shard has work. A call on one shard decides on the
  // calling thread, as that shard's own kernel would: it has no duplicate
  // lookup to save, and with concurrent callers already busy on every
  // core, spreading its keys over the pool adds wake-ups and waiting but
  // no parallelism. Decide needs the engine's cache and threshold, which
  // every shard shares by construction, so shard 0 decides for all.
  common::ThreadPool* tp = nullptr;
  if (prepared.size() > 1) {
    tp = pool != nullptr ? pool : &common::ThreadPool::global();
  }
  const CoalesceStats total = shards_.front()->decide(requests, prepared, decisions, deadline, tp);

  // Counted after the join, on the calling thread, so counter totals are
  // exact and independent of lane interleaving.
  MANDIPASS_OBS_COUNT_N("auth.shard.verify_total", routed);
  MANDIPASS_OBS_COUNT_N("auth.shard.coalesced_groups", total.groups);
  MANDIPASS_OBS_COUNT_N("auth.shard.coalesced_requests", total.coalesced);
  MANDIPASS_OBS_COUNT_N("auth.shard.singleton_requests", total.singletons);
}

double ShardedVerifier::threshold() const { return shards_.front()->threshold(); }

}  // namespace mandipass::auth
