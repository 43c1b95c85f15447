// Circuit-breaker state machine under the deterministic virtual clock
// (DESIGN.md §17): closed→open on the consecutive-failure threshold,
// half-open probe admission and its success/failure outcomes, and
// thread-count invariance of the trip counter — the property that lets
// bench_chaos gate breaker transitions exactly.
#include "auth/resilience/circuit_breaker.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/deadline.h"

namespace mandipass::auth::resilience {
namespace {

CircuitBreakerConfig config(int threshold, std::int64_t open_us, int probes = 1) {
  CircuitBreakerConfig c;
  c.failure_threshold = threshold;
  c.open_duration_us = open_us;
  c.half_open_probes = probes;
  return c;
}

TEST(CircuitBreaker, ClosedUntilConsecutiveFailuresReachThreshold) {
  common::VirtualClock clock;
  CircuitBreaker breaker(config(3, 1000), &clock);
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_FALSE(breaker.engaged());
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();  // third consecutive: trips
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_TRUE(breaker.engaged());
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow());
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveRun) {
  common::VirtualClock clock;
  CircuitBreaker breaker(config(3, 1000), &clock);
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_success();  // run broken
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, OpenRejectsUntilCooldownThenAdmitsOneProbe) {
  common::VirtualClock clock;
  CircuitBreaker breaker(config(1, 1000), &clock);
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_FALSE(breaker.allow());
  clock.advance_us(999);
  EXPECT_FALSE(breaker.allow());
  // state() is a pure view: still reports Open until a caller probes.
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  clock.advance_us(1);
  EXPECT_TRUE(breaker.allow());  // this call IS the half-open probe
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  EXPECT_FALSE(breaker.allow());  // probe budget (1) already admitted
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  common::VirtualClock clock;
  CircuitBreaker breaker(config(1, 1000), &clock);
  breaker.record_failure();
  clock.advance_us(1000);
  ASSERT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_FALSE(breaker.engaged());
  EXPECT_EQ(breaker.closes(), 1u);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopensAndRestartsCooldown) {
  common::VirtualClock clock;
  CircuitBreaker breaker(config(1, 1000), &clock);
  breaker.record_failure();
  clock.advance_us(1000);
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();  // probe failed
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_EQ(breaker.closes(), 0u);
  // Cooldown restarted at the re-trip instant.
  clock.advance_us(999);
  EXPECT_FALSE(breaker.allow());
  clock.advance_us(1);
  EXPECT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

TEST(CircuitBreaker, MultipleProbesMustAllSucceedToClose) {
  common::VirtualClock clock;
  CircuitBreaker breaker(config(1, 1000, /*probes=*/2), &clock);
  breaker.record_failure();
  clock.advance_us(1000);
  EXPECT_TRUE(breaker.allow());   // probe 1
  EXPECT_TRUE(breaker.allow());   // probe 2
  EXPECT_FALSE(breaker.allow());  // budget spent
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);  // one of two
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_EQ(breaker.closes(), 1u);
}

// The invariance bench_chaos relies on: N threads hammering
// record_failure trip the breaker exactly once, because failures while
// Open are inert. Checked for several thread counts.
TEST(CircuitBreaker, TripCountIsThreadCountInvariant) {
  for (const unsigned n_threads : {1u, 2u, 4u, 8u}) {
    common::VirtualClock clock;
    CircuitBreaker breaker(config(5, 1'000'000), &clock);
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t) {
      threads.emplace_back([&breaker] {
        for (int i = 0; i < 100; ++i) {
          breaker.record_failure();
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_EQ(breaker.trips(), 1u) << n_threads << " threads";
    EXPECT_EQ(breaker.state(), BreakerState::Open) << n_threads << " threads";
    EXPECT_FALSE(breaker.allow()) << n_threads << " threads";
  }
}

}  // namespace
}  // namespace mandipass::auth::resilience
