// Overload-resilient serving wrapper around the sharded engine
// (DESIGN.md §17).
//
// ShardedVerifier gives throughput; ResilientVerifier gives
// *containment*. It wraps the 8-shard engine with, per shard:
//
//   * bounded admission — each verify_batch call admits at most
//     queue_capacity requests per shard and sheds the newest arrivals
//     past that with typed Overloaded decisions instead of queueing
//     unboundedly;
//   * a CircuitBreaker driven by the shard's persistence probes
//     (persist_shard) — while engaged, the shard serves *degraded mode*:
//     the engine's decision kernel with its `degraded` bit set, which
//     never builds a matrix for the shard (a key only degraded shards
//     need is peeked; one a healthy shard of the same call needs is the
//     healthy shard's get) and marks every decision it serves
//     `degraded`;
//   * deadline enforcement — expired requests short-circuit to typed
//     Expired decisions at admission, and scripted slow-shard stalls
//     (ServiceFaultInjector) are applied as deadline *skew* before the
//     shard fan-out.
//
// After admission and a serial stall/breaker pass, the batch goes to
// ShardedVerifier::serve, the service's one shard fan-out, so healthy
// and degraded shards alike get the kernel's single snapshot window per
// shard, then its one task per distinct key of the call: the deadline
// re-check, one lookup and the coalesced transform.
//
// Request taxonomy after this layer (the §17 table):
//   shed      never entered service (queue full / degraded cache miss)
//   expired   budget died before its work ran
//   degraded  served exactly, by a breaker-engaged shard, and says so
//   rejected  served, distance beyond threshold (a normal answer)
//
// Determinism rules (the chaos bench gates all counters exactly):
//   * admission (phase A) is serial in request order — shed counts are a
//     pure function of arrival order and queue capacity;
//   * admission lists are local to each verify_batch call — concurrent
//     callers never see, shed or serve each other's requests;
//   * stalls are deadline skew, consumed and applied in a serial
//     per-shard pass before the fan-out, not clock advances or sleeps —
//     expiry counts are independent of worker scheduling;
//   * the auth.resil.* outcome counters come from one tally() of the
//     decisions after the fan-out join — identical for any thread count;
//   * breaker state changes only through persistence probes and scripted
//     clocks — the verify path reads it once per shard per call in the
//     serial pass, never mutates it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "auth/resilience/backoff.h"
#include "auth/resilience/circuit_breaker.h"
#include "auth/resilience/service_fault_injector.h"
#include "auth/sharded_verifier.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"

namespace mandipass::auth::resilience {

struct ResilienceConfig {
  /// Admission bound per shard per verify_batch call: within one call,
  /// a shard's arrivals past the first queue_capacity are shed. Callers
  /// running concurrently each get their own bound. Precondition: >= 1.
  std::size_t queue_capacity = 4096;
  /// Per-shard breaker tuning.
  CircuitBreakerConfig breaker{};
  /// Clock for breaker cooldowns (deadlines carry their own clock).
  /// Steady clock when null; must outlive the verifier.
  const common::ClockSource* clock = nullptr;
  /// Retry budget + backoff for persist_shard.
  int persist_retries = 3;
  BackoffPolicy persist_backoff{};
};

class ResilientVerifier {
 public:
  explicit ResilientVerifier(std::size_t shards, ResilienceConfig config = {},
                             double threshold = kPaperThreshold);

  // ---- population management: straight delegation to the engine ----
  void enroll(const std::string& user, StoredTemplate tmpl) { engine_.enroll(user, std::move(tmpl)); }
  bool revoke(const std::string& user) { return engine_.revoke(user); }
  std::size_t shard_count() const { return engine_.shard_count(); }
  std::size_t shard_for(std::string_view user) const { return engine_.shard_for(user); }

  /// The wrapped engine (e.g. for cache prewarming or healthy-path
  /// comparison in tests/benches).
  ShardedVerifier& engine() { return engine_; }

  CircuitBreaker& breaker(std::size_t s) { return *breakers_[s]; }

  /// The owned fault injector (chaos scripting surface).
  ServiceFaultInjector& faults() { return faults_; }

  /// Resilient batch verification; safe to call from several threads at
  /// once. Phase A admits serially in request order (deadline check,
  /// then the per-shard queue_capacity bound of this call; rejects become
  /// typed Expired / Shed decisions; admissions count
  /// auth.resil.admitted). Phase B passes over the shards serially — a
  /// stalled shard (injector skew) expires its whole admitted list, a
  /// breaker-engaged shard is marked degraded — then hands the lists to
  /// ShardedVerifier::serve on `pool` under `deadline`. The batch's
  /// shed / expired / degraded decisions count auth.resil.{shed,expired,
  /// degraded}; sheds past admission count auth.resil.degraded_miss.
  /// Decisions of healthy shards are bit-identical to
  /// ShardedVerifier::verify_batch.
  BatchResult verify_batch(std::span<const VerifyRequest> requests,
                           common::ThreadPool* pool = nullptr,
                           const common::Deadline& deadline = {});

  /// Persists shard `s` to `path` (crash-safe save + retry/backoff) and
  /// feeds the outcome to the shard's breaker. While the breaker is Open
  /// this is rejected up front (typed Overloaded) — except once the
  /// cooldown elapses, when the breaker admits the call as its half-open
  /// probe; a probe success re-closes the breaker.
  common::Result<void> persist_shard(std::size_t s, const std::string& path);

 private:
  ResilienceConfig config_;
  ShardedVerifier engine_;
  ServiceFaultInjector faults_;
  /// unique_ptr keeps mutex addresses stable; immutable after
  /// construction.
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
};

}  // namespace mandipass::auth::resilience
