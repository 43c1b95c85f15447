// Per-shard circuit breaker (DESIGN.md §17).
//
// When a shard's persistence dependency starts failing hard (wedged
// disk, full volume), hammering it with more attempts makes everything
// worse: each request eats the full retry-with-backoff cost before
// failing anyway. The breaker converts "failing repeatedly" into an
// explicit state the service routes on:
//
//        consecutive failures >= threshold
//   Closed ────────────────────────────────▶ Open
//      ▲                                      │ cooldown elapses;
//      │ probe succeeds                       ▼ next allow() is a probe
//      └──────────────────────────────── HalfOpen
//                 probe fails ──▶ back to Open (cooldown restarts)
//
// While the breaker is engaged (Open or HalfOpen) the resilience layer
// serves *degraded mode*: verification against already-cached matrices
// only, every decision tagged with the explicit `degraded` bit rather
// than silently indistinguishable answers.
//
// Determinism: all timing flows through the injected common::ClockSource,
// so under a VirtualClock the state machine is a pure function of the
// recorded success/failure/advance sequence — trip and close counts gate
// exactly in bench_chaos. State is Mutex-guarded (not atomics): the
// transitions are compound read-modify-write and the repo's
// atomic-order-audit lint confines atomics to obs/thread_pool.
#pragma once

#include <cstdint>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mandipass::auth::resilience {

struct CircuitBreakerConfig {
  /// Consecutive failures that trip Closed → Open.
  int failure_threshold = 5;
  /// Microseconds Open rejects everything before admitting a probe.
  std::int64_t open_duration_us = 1'000'000;
  /// Probe successes required in HalfOpen to re-close.
  int half_open_probes = 1;
};

enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

class CircuitBreaker {
 public:
  /// `clock` times the Open cooldown; steady clock when null. Must
  /// outlive the breaker.
  explicit CircuitBreaker(CircuitBreakerConfig config = {},
                          const common::ClockSource* clock = nullptr);

  /// May a guarded operation run now? Closed: always. Open: false until
  /// the cooldown elapses, at which point the call itself is admitted as
  /// the first HalfOpen probe. HalfOpen: true while probe slots remain
  /// (half_open_probes minus probes already admitted), so a burst of
  /// callers cannot stampede the recovering dependency.
  bool allow() MANDIPASS_EXCLUDES(mutex_);

  /// Reports the guarded operation's outcome. Failures accumulate only
  /// consecutively (any success resets the run). A failure while Open is
  /// ignored — it carries no new information and keeping it inert is
  /// what makes the trip counter thread-count invariant.
  void record_success() MANDIPASS_EXCLUDES(mutex_);
  void record_failure() MANDIPASS_EXCLUDES(mutex_);

  /// Pure view: never promotes Open → HalfOpen (that requires a caller
  /// probing through allow()), so reading state has no side effects.
  BreakerState state() const MANDIPASS_EXCLUDES(mutex_);

  /// True when not Closed — the resilience layer's "serve degraded"
  /// predicate. HalfOpen still degrades verification: only the
  /// persistence probes test the dependency.
  bool engaged() const { return state() != BreakerState::Closed; }

  /// Lifetime transition counters (also exported as the obs counters
  /// "auth.resil.breaker_trips" / "auth.resil.breaker_closes").
  std::uint64_t trips() const MANDIPASS_EXCLUDES(mutex_);
  std::uint64_t closes() const MANDIPASS_EXCLUDES(mutex_);

 private:
  const CircuitBreakerConfig config_;
  const common::ClockSource* clock_;  ///< never null after construction

  mutable common::Mutex mutex_;
  BreakerState state_ MANDIPASS_GUARDED_BY(mutex_) = BreakerState::Closed;
  int consecutive_failures_ MANDIPASS_GUARDED_BY(mutex_) = 0;
  int probes_admitted_ MANDIPASS_GUARDED_BY(mutex_) = 0;
  int probe_successes_ MANDIPASS_GUARDED_BY(mutex_) = 0;
  std::int64_t opened_at_us_ MANDIPASS_GUARDED_BY(mutex_) = 0;
  std::uint64_t trips_ MANDIPASS_GUARDED_BY(mutex_) = 0;
  std::uint64_t closes_ MANDIPASS_GUARDED_BY(mutex_) = 0;
};

}  // namespace mandipass::auth::resilience
