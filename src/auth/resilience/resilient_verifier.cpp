#include "auth/resilience/resilient_verifier.h"
// mandilint: allow-file(expects-guard) -- the serving API is total by
// design (DESIGN.md §12/§17): overload, expiry and malformed requests
// become typed decisions, not precondition failures.

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

BatchResult ResilientVerifier::verify_batch(std::span<const VerifyRequest> requests,
                                            common::ThreadPool* pool,
                                            const common::Deadline& deadline) {
  MANDIPASS_OBS_TRACE(trace_batch, "auth.resil.batch_us");
  BatchResult result;
  result.decisions.resize(requests.size());

  // Phase A — admission, serial in request order. Determinism rule:
  // shed/expired counts must be a pure function of (arrival order, queue
  // capacity, deadline), so no concurrency is allowed to reorder who
  // meets a full queue. The per-shard lists belong to this call alone,
  // which is what makes concurrent callers safe.
  std::vector<ShardWork> work(engine_.shard_count());
  std::size_t admitted_count = 0;
  std::size_t queue_shed = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (deadline.expired()) {
      mark_expired(result.decisions[i]);
      continue;
    }
    std::vector<std::size_t>& queue = work[engine_.shard_for(requests[i].user)].indices;
    if (queue.size() >= config_.queue_capacity) {
      // Reject-newest: requests already admitted are closest to their
      // deadline and have the most sunk cost, so the marginal arrival is
      // the cheapest to turn away.
      mark_shed(result.decisions[i], "admission queue full");
      ++queue_shed;
      continue;
    }
    queue.push_back(i);
    ++admitted_count;
  }

  // Phase B — a serial pass over the shards, then the engine's fan-out.
  // A scripted stall is applied as deadline *skew*: the shard acts as if
  // `stall` microseconds will pass before its work completes, so a stall
  // that outlives the budget expires the shard's whole admitted list. No
  // clock advances and nothing sleeps, so expiry counts do not depend on
  // worker scheduling. A breaker-engaged shard serves degraded mode.
  for (std::size_t s = 0; s < work.size(); ++s) {
    if (work[s].indices.empty()) {
      continue;
    }
    const std::int64_t stall = faults_.consume_stall(s);
    if (stall > 0 && deadline.expired_after(stall)) {
      for (const std::size_t i : work[s].indices) {
        mark_expired(result.decisions[i]);
      }
      work[s].indices.clear();
      continue;
    }
    work[s].degraded = breakers_[s]->engaged();
  }
  engine_.serve(requests, work, result.decisions, pool, deadline);

  // Counters come from the decisions, after the join. Every shed that is
  // not an admission shed is a degraded-mode cache miss.
  result.stats = tally(result.decisions);
  MANDIPASS_OBS_COUNT_N("auth.resil.admitted", admitted_count);
  MANDIPASS_OBS_COUNT_N("auth.resil.shed", result.stats.shed);
  MANDIPASS_OBS_COUNT_N("auth.resil.expired", result.stats.expired);
  MANDIPASS_OBS_COUNT_N("auth.resil.degraded", result.stats.degraded);
  MANDIPASS_OBS_COUNT_N("auth.resil.degraded_miss", result.stats.shed - queue_shed);
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
