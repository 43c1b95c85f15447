#include "auth/resilience/circuit_breaker.h"

#include "common/error.h"
#include "common/obs.h"

namespace mandipass::auth::resilience {

using common::MutexLock;

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config, const common::ClockSource* clock)
    : config_(config),
      clock_(clock != nullptr ? clock : &common::SteadyClockSource::instance()) {
  MANDIPASS_EXPECTS(config_.failure_threshold >= 1 && config_.open_duration_us >= 0 &&
                    config_.half_open_probes >= 1);
}

bool CircuitBreaker::allow() {
  MutexLock lock(mutex_);
  switch (state_) {
    case BreakerState::Closed:
      return true;
    case BreakerState::Open: {
      if (clock_->now_us() - opened_at_us_ < config_.open_duration_us) {
        return false;
      }
      // Cooldown over: this caller becomes the first half-open probe.
      state_ = BreakerState::HalfOpen;
      probes_admitted_ = 1;
      probe_successes_ = 0;
      return true;
    }
    case BreakerState::HalfOpen: {
      if (probes_admitted_ >= config_.half_open_probes) {
        return false;  // probe budget spent; wait for their outcomes
      }
      ++probes_admitted_;
      return true;
    }
  }
  return false;  // unreachable for valid states
}

void CircuitBreaker::record_success() {
  MutexLock lock(mutex_);
  switch (state_) {
    case BreakerState::Closed:
      consecutive_failures_ = 0;
      return;
    case BreakerState::Open:
      // No probe was admitted, so this outcome is stale — ignore.
      return;
    case BreakerState::HalfOpen: {
      ++probe_successes_;
      if (probe_successes_ >= config_.half_open_probes) {
        state_ = BreakerState::Closed;
        consecutive_failures_ = 0;
        ++closes_;
        MANDIPASS_OBS_COUNT("auth.resil.breaker_closes");
      }
      return;
    }
  }
}

void CircuitBreaker::record_failure() {
  MutexLock lock(mutex_);
  switch (state_) {
    case BreakerState::Closed: {
      ++consecutive_failures_;
      if (consecutive_failures_ >= config_.failure_threshold) {
        state_ = BreakerState::Open;
        opened_at_us_ = clock_->now_us();
        consecutive_failures_ = 0;
        ++trips_;
        MANDIPASS_OBS_COUNT("auth.resil.breaker_trips");
      }
      return;
    }
    case BreakerState::Open:
      // Already tripped; extra failures carry no information. Keeping
      // them inert makes trips() invariant under the number of threads
      // that pile onto a failing dependency.
      return;
    case BreakerState::HalfOpen: {
      // The probe failed: re-open and restart the cooldown.
      state_ = BreakerState::Open;
      opened_at_us_ = clock_->now_us();
      ++trips_;
      MANDIPASS_OBS_COUNT("auth.resil.breaker_trips");
      return;
    }
  }
}

BreakerState CircuitBreaker::state() const {
  MutexLock lock(mutex_);
  return state_;
}

std::uint64_t CircuitBreaker::trips() const {
  MutexLock lock(mutex_);
  return trips_;
}

std::uint64_t CircuitBreaker::closes() const {
  MutexLock lock(mutex_);
  return closes_;
}

}  // namespace mandipass::auth::resilience
