#include "auth/resilience/resilient_verifier.h"
// mandilint: allow-file(expects-guard) -- the serving API is total by
// design (DESIGN.md §12/§17): overload, expiry and malformed requests
// become typed decisions, not precondition failures.

#include <algorithm>
#include <chrono>
#include <utility>

#include "auth/verifier.h"
#include "common/error.h"
#include "common/obs.h"

namespace mandipass::auth::resilience {

ResilientVerifier::ResilientVerifier(std::size_t shards, ResilienceConfig config,
                                     double threshold)
    : config_(config), engine_(shards, threshold) {
  MANDIPASS_EXPECTS(config_.queue_capacity >= 1);
  breakers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(config_.breaker, config_.clock));
  }
}

BatchDecision ResilientVerifier::degraded_one(std::size_t s, const VerifyRequest& request,
                                              std::size_t* degraded_served,
                                              std::size_t* degraded_missed) {
  BatchDecision out;
  // The healthy path's gate, so a degraded shard classifies malformed
  // requests identically to a healthy one.
  if (const auto gate = check_probe(request.raw_probe); !gate.ok()) {
    mark_rejected(out, gate.error());
    return out;
  }
  const BatchVerifier& shard = engine_.shard(s);
  const auto stored = shard.snapshot(request.user);
  if (const auto gate = check_template(stored, request.user, request.raw_probe.size());
      !gate.ok()) {
    mark_rejected(out, gate.error());
    return out;
  }
  // Degraded restriction: serve only matrices the cache already holds.
  // peek never builds (the breaker is open because the shard's
  // dependencies are suspect — constructing fresh state is exactly what
  // we must not do) and a miss is an honest typed shed, not a guess.
  const auto g = engine_.matrix_cache().peek(stored->matrix_seed, request.raw_probe.size());
  if (g == nullptr) {
    ++*degraded_missed;
    mark_shed(out, "degraded mode: matrix not cached");
    return out;
  }
  out.known = true;
  out.key_version = stored->key_version;
  out.degraded = true;
  const auto transformed = g->transform(request.raw_probe);
  const Verifier v(shard.threshold());
  out.decision = v.verify(transformed, stored->data);
  out.status = out.decision.accepted ? BatchStatus::Accepted : BatchStatus::Rejected;
  ++*degraded_served;
  return out;
}

BatchResult ResilientVerifier::verify_batch(std::span<const VerifyRequest> requests,
                                            const common::Deadline& deadline,
                                            common::ThreadPool* pool) {
  MANDIPASS_OBS_TRACE(trace_batch, "auth.resil.batch_us");
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::global();
  const std::size_t n_shards = engine_.shard_count();

  BatchResult result;
  result.decisions.resize(requests.size());

  // Phase A — admission, serial in request order. Determinism rule:
  // shed/expired counts must be a pure function of (arrival order, queue
  // capacity, deadline), so no concurrency is allowed to reorder who
  // meets a full queue. The per-shard lists belong to this call alone,
  // which is what makes concurrent callers safe.
  std::vector<std::vector<std::size_t>> admitted(n_shards);
  std::size_t admitted_count = 0;
  std::size_t shed_count = 0;
  std::size_t expired_count = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (deadline.expired()) {
      mark_expired(result.decisions[i]);
      ++expired_count;
      continue;
    }
    std::vector<std::size_t>& queue = admitted[engine_.shard_for(requests[i].user)];
    if (queue.size() >= config_.queue_capacity) {
      // Reject-newest: requests already admitted are closest to their
      // deadline and have the most sunk cost, so the marginal arrival is
      // the cheapest to turn away.
      mark_shed(result.decisions[i], "admission queue full");
      ++shed_count;
      continue;
    }
    queue.push_back(i);
    ++admitted_count;
  }

  // Phase B — per-shard service on the pool. Each shard serves its own
  // admitted list and writes disjoint decision slots; per-shard tallies
  // are aggregated after the join so counter totals are thread-count
  // invariant.
  std::vector<std::size_t> shard_expired(n_shards, 0);
  std::vector<std::size_t> shard_degraded(n_shards, 0);
  std::vector<std::size_t> shard_degraded_miss(n_shards, 0);
  tp.parallel_for(0, n_shards, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      if (admitted[s].empty()) {
        continue;
      }
      // A scripted stall is applied as deadline *skew*: the shard acts
      // as if `stall` microseconds will pass before its work completes.
      // No clock advances and nothing sleeps, so expiry counts do not
      // depend on which worker observes the stall first.
      const std::int64_t stall = faults_.consume_stall(s);
      if (stall > 0 && deadline.expired_after(stall)) {
        for (const std::size_t i : admitted[s]) {
          mark_expired(result.decisions[i]);
        }
        shard_expired[s] += admitted[s].size();
        continue;
      }
      if (breakers_[s]->engaged()) {
        for (const std::size_t i : admitted[s]) {
          result.decisions[i] =
              degraded_one(s, requests[i], &shard_degraded[s], &shard_degraded_miss[s]);
        }
        continue;
      }
      engine_.shard(s).verify_coalesced(requests, admitted[s], result.decisions, deadline);
    }
  });

  std::size_t degraded_count = 0;
  std::size_t degraded_miss_count = 0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    expired_count += shard_expired[s];
    degraded_count += shard_degraded[s];
    degraded_miss_count += shard_degraded_miss[s];
  }
  MANDIPASS_OBS_COUNT_N("auth.resil.admitted", admitted_count);
  MANDIPASS_OBS_COUNT_N("auth.resil.shed", shed_count + degraded_miss_count);
  MANDIPASS_OBS_COUNT_N("auth.resil.expired", expired_count);
  MANDIPASS_OBS_COUNT_N("auth.resil.degraded", degraded_count);
  MANDIPASS_OBS_COUNT_N("auth.resil.degraded_miss", degraded_miss_count);

  result.stats = tally(result.decisions);
  return result;
}

common::Result<void> ResilientVerifier::persist_shard(std::size_t s, const std::string& path) {
  CircuitBreaker& breaker = *breakers_[s];
  if (!breaker.allow()) {
    MANDIPASS_OBS_COUNT("auth.resil.persist_rejected");
    return common::make_error(common::ErrorCode::Overloaded,
                              "circuit open: persistence suspended for shard");
  }
  const common::Result<void> result =
      engine_.shard(s).save_file(path, config_.persist_retries, config_.persist_backoff);
  if (result.ok()) {
    MANDIPASS_OBS_COUNT("auth.resil.persist_ok");
    breaker.record_success();
  } else {
    MANDIPASS_OBS_COUNT("auth.resil.persist_failed");
    breaker.record_failure();
  }
  return result;
}

}  // namespace mandipass::auth::resilience
