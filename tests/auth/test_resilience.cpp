// Overload-resilience layer (DESIGN.md §17): deterministic retry backoff
// through the capturing sleep hook, the bounded/integrity-checked
// MatrixCache, deadline propagation through the sharded engine, and the
// full ResilientVerifier taxonomy — shed counts exact by arrival order,
// stall-skew expiry, degraded-mode serving with bit-identical distances,
// and breaker-gated persistence with recovery.
#include "auth/resilience/resilient_verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "auth/batch_verifier.h"
#include "auth/gaussian_matrix.h"
#include "auth/matrix_cache.h"
#include "auth/resilience/backoff.h"
#include "auth/sharded_verifier.h"
#include "common/deadline.h"
#include "common/io.h"
#include "common/mutex.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace mandipass::auth::resilience {
namespace {

constexpr std::size_t kDim = 32;

std::uint64_t counter_value(const char* name) {
  return common::obs::counter(name).value();
}

std::vector<float> random_print(Rng& rng) {
  std::vector<float> v(kDim);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform());
  }
  return v;
}

StoredTemplate make_template(std::span<const float> print, std::uint64_t seed,
                             std::uint32_t version) {
  const GaussianMatrix g(seed, print.size());
  StoredTemplate tmpl;
  tmpl.data = g.transform(print);
  tmpl.matrix_seed = seed;
  tmpl.key_version = version;
  return tmpl;
}

std::string user_name(std::size_t u) { return "user" + std::to_string(u); }

// Captured delay sequence for the retry-sleep hook (a plain function
// pointer, so the capture target is file-static).
std::vector<std::int64_t> g_captured_sleeps;
void capture_sleep(std::int64_t delay_us) { g_captured_sleeps.push_back(delay_us); }
void swallow_sleep(std::int64_t) {}

/// Installs a sleep hook for the test body and restores the previous one
/// (and a disarmed io hook) on teardown.
class SleepHookGuard {
 public:
  explicit SleepHookGuard(SleepFn fn) : previous_(set_retry_sleep_fn(fn)) {
    g_captured_sleeps.clear();
  }
  ~SleepHookGuard() {
    set_retry_sleep_fn(previous_);
    common::disarm_io_fault();
  }
  SleepHookGuard(const SleepHookGuard&) = delete;
  SleepHookGuard& operator=(const SleepHookGuard&) = delete;

 private:
  SleepFn previous_;
};

std::string store_path(const char* tag) {
  return ::testing::TempDir() + "/mandipass_resil_" + tag + ".bin";
}

void clean_disk(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".bak").c_str());
  std::remove((path + ".bak.tmp").c_str());
}

// -------------------------------------------------------------- backoff

TEST(Backoff, ExponentialSequenceIsDeterministicAndClamped) {
  const BackoffPolicy policy;  // 1000us base, x2, 64ms clamp
  EXPECT_EQ(policy.delay_us(0), 1000);
  EXPECT_EQ(policy.delay_us(1), 2000);
  EXPECT_EQ(policy.delay_us(2), 4000);
  EXPECT_EQ(policy.delay_us(5), 32000);
  EXPECT_EQ(policy.delay_us(6), 64000);
  EXPECT_EQ(policy.delay_us(7), 64000);   // clamped
  EXPECT_EQ(policy.delay_us(40), 64000);  // clamp survives overflow-range attempts

  BackoffPolicy flat;
  flat.base_us = 500;
  flat.multiplier = 1.0;
  flat.max_us = 500;
  EXPECT_EQ(flat.delay_us(0), 500);
  EXPECT_EQ(flat.delay_us(9), 500);
}

TEST(Backoff, StoreRetrySleepsTheExactPolicySequence) {
  const SleepHookGuard guard(&capture_sleep);
  const std::string path = store_path("retry_backoff");
  clean_disk(path);

  BatchVerifier engine;
  Rng rng(31);
  const auto print = random_print(rng);
  engine.enroll("alice", make_template(print, 5, 1));

  // Two transient EIOs, then clean: save_file succeeds on the third
  // attempt after sleeping exactly delay_us(0), delay_us(1).
  common::arm_io_fault({.kind = common::IoFaultConfig::Kind::TransientError,
                        .fail_at_byte = 0,
                        .failures = 2});
  const auto result = engine.save_file(path, /*max_retries=*/3);
  EXPECT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(g_captured_sleeps, (std::vector<std::int64_t>{1000, 2000}));
  clean_disk(path);
}

// --------------------------------------------------------- matrix cache

TEST(MatrixCache, EvictsLeastRecentlyUsedPastTheCap) {
  MatrixCache cache({.max_entries = 2});
  const std::uint64_t evicted_before = counter_value("auth.matrix_cache.evicted");
  ASSERT_NE(cache.get(1, 8), nullptr);
  ASSERT_NE(cache.get(2, 8), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  // Touch seed 1 so seed 2 becomes the LRU victim.
  ASSERT_NE(cache.get(1, 8), nullptr);
  ASSERT_NE(cache.get(3, 8), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counter_value("auth.matrix_cache.evicted"), evicted_before + 1);
  EXPECT_EQ(cache.peek(2, 8), nullptr);  // the LRU seed is gone
  EXPECT_NE(cache.peek(1, 8), nullptr);
  EXPECT_NE(cache.peek(3, 8), nullptr);
}

TEST(MatrixCache, EvictedMatrixSurvivesThroughOutstandingSharedPtr) {
  MatrixCache cache({.max_entries = 1});
  const auto held = cache.get(7, 8);
  ASSERT_NE(held, nullptr);
  ASSERT_NE(cache.get(8, 8), nullptr);  // evicts seed 7 from the cache
  EXPECT_EQ(cache.peek(7, 8), nullptr);
  // Further misses of the same dim evict keys nobody holds and rebuild
  // into their buffers; the held matrix's buffer is never one of them.
  for (std::uint64_t seed = 9; seed < 14; ++seed) {
    ASSERT_NE(cache.get(seed, 8), nullptr);
  }
  // The caller's reference is unaffected by the eviction.
  const GaussianMatrix fresh(7, 8);
  const std::vector<float> probe{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(held->transform(probe), fresh.transform(probe));
  EXPECT_EQ(held->checksum(), fresh.checksum());
}

TEST(MatrixCache, KeysRebuiltIntoRecycledBuffersAreFreshBuilds) {
  // One entry: from the third miss on, each miss builds into the buffer
  // of the key evicted by the miss before it. A key of another dim in
  // between must neither take nor spoil those buffers.
  MatrixCache cache({.max_entries = 1});
  Rng rng(31);
  const std::vector<float> probe = random_print(rng);
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const std::size_t dim = seed == 24 ? 16 : kDim;
    const auto g = cache.get(seed, dim);
    ASSERT_NE(g, nullptr);
    const GaussianMatrix fresh(seed, dim);
    EXPECT_EQ(g->checksum(), fresh.checksum()) << seed;
    if (dim == kDim) {
      EXPECT_EQ(g->transform(probe), fresh.transform(probe)) << seed;
    }
  }
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MatrixCache, PeekNeverBuildsAndNeverCountsHitOrMiss) {
  MatrixCache cache;
  const std::uint64_t hits = counter_value("auth.batch.matrix_cache_hits");
  const std::uint64_t misses = counter_value("auth.batch.matrix_cache_misses");
  EXPECT_EQ(cache.peek(42, 8), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_NE(cache.get(42, 8), nullptr);
  EXPECT_NE(cache.peek(42, 8), nullptr);
  EXPECT_EQ(cache.peek(42, 16), nullptr);  // dim mismatch is a miss
  EXPECT_EQ(counter_value("auth.batch.matrix_cache_hits"), hits);
  EXPECT_EQ(counter_value("auth.batch.matrix_cache_misses"), misses + 1);  // the get only
}

TEST(MatrixCache, PoisonIsDetectedAndHealedByRebuild) {
  MatrixCache cache;
  ASSERT_NE(cache.get(9, 8), nullptr);
  const std::uint64_t detected_before = counter_value("auth.matrix_cache.poison_detected");
  ASSERT_TRUE(cache.corrupt_integrity_for_test(9));
  EXPECT_FALSE(cache.corrupt_integrity_for_test(12345));  // absent seed

  // peek reports the poisoned entry as absent but must not mutate.
  EXPECT_EQ(cache.peek(9, 8), nullptr);
  EXPECT_EQ(counter_value("auth.matrix_cache.poison_detected"), detected_before + 1);
  EXPECT_EQ(cache.size(), 1u);

  // get detects, drops and rebuilds: the healed matrix is exact.
  const auto healed = cache.get(9, 8);
  ASSERT_NE(healed, nullptr);
  EXPECT_EQ(counter_value("auth.matrix_cache.poison_detected"), detected_before + 2);
  const GaussianMatrix fresh(9, 8);
  const std::vector<float> probe{8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(healed->transform(probe), fresh.transform(probe));
  // Healed entry passes integrity from now on.
  EXPECT_NE(cache.peek(9, 8), nullptr);
  EXPECT_EQ(counter_value("auth.matrix_cache.poison_detected"), detected_before + 2);
}

TEST(MatrixCache, SeedReappearingWithNewDimReplacesTheEntry) {
  MatrixCache cache;
  ASSERT_NE(cache.get(4, 8), nullptr);
  const auto wide = cache.get(4, 16);
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->dim(), 16u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.peek(4, 8), nullptr);
  EXPECT_NE(cache.peek(4, 16), nullptr);
}

// ----------------------------------------------- deadline through shards

TEST(ShardedVerifierDeadline, ExpiredBudgetShortCircuitsEveryShard) {
  ShardedVerifier engine(4);
  Rng rng(32);
  std::vector<VerifyRequest> requests;
  for (std::size_t u = 0; u < 12; ++u) {
    const auto print = random_print(rng);
    engine.enroll(user_name(u), make_template(print, 600 + u, 1));
    requests.push_back({user_name(u), print});
  }
  common::VirtualClock clock;
  const auto deadline = common::Deadline::after_us(100, &clock);
  clock.advance_us(101);
  const BatchResult result = engine.verify_batch(requests, nullptr, deadline);
  EXPECT_EQ(result.stats.expired, 12u);
  for (const BatchDecision& d : result.decisions) {
    EXPECT_EQ(d.status, BatchStatus::Expired);
    EXPECT_EQ(d.reason, common::ErrorCode::DeadlineExceeded);
    EXPECT_FALSE(d.known);
  }
  // The same batch with budget left serves normally.
  const BatchResult ok = engine.verify_batch(requests, nullptr,
                                             common::Deadline::after_us(1'000'000, &clock));
  EXPECT_EQ(ok.stats.expired, 0u);
  EXPECT_EQ(ok.stats.known, 12u);
}

/// A clock that moves 1 µs forward on every read, so a deadline dies
/// after a fixed number of checks whatever the wall time. Guarded by a
/// Mutex, as VirtualClock is.
class TickPerReadClock final : public common::ClockSource {
 public:
  std::int64_t now_us() const override MANDIPASS_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    return now_us_++;
  }

 private:
  mutable common::Mutex mutex_;
  mutable std::int64_t now_us_ MANDIPASS_GUARDED_BY(mutex_) = 0;
};

TEST(ShardedVerifierDeadline, BudgetThatDiesBetweenKeyLookupsExpiresTheRemainingKeys) {
  // Six keys, six users on each, spread over the shards. On a 1-lane
  // pool a call reads the clock once when the deadline is made, once per
  // prepared shard and then once before each key's lookup, in key order;
  // the budget below dies at the lookup of the fourth key.
  constexpr std::uint64_t kFirstSeed = 800;
  constexpr std::size_t kKeys = 6;
  constexpr std::size_t kUsersPerKey = 6;
  common::ThreadPool pool(1);
  for (const std::size_t shards : {2u, 8u}) {
    ShardedVerifier engine(shards);
    Rng rng(34);
    std::vector<VerifyRequest> requests;
    std::vector<std::size_t> key_of;  // per request
    std::vector<std::set<std::size_t>> shards_of_key(kKeys);
    std::set<std::size_t> busy;
    for (std::size_t u = 0; u < kKeys * kUsersPerKey; ++u) {
      const auto print = random_print(rng);
      const std::size_t key = u % kKeys;
      engine.enroll(user_name(u), make_template(print, kFirstSeed + key, 1));
      requests.push_back({user_name(u), print});
      key_of.push_back(key);
      shards_of_key[key].insert(engine.shard_for(user_name(u)));
      busy.insert(engine.shard_for(user_name(u)));
    }
    for (std::size_t key = 0; key < kKeys; ++key) {
      ASSERT_GT(shards_of_key[key].size(), 1u) << "key " << key << " at " << shards << " shards";
    }
    const BatchResult reference = engine.verify_batch(requests, &pool);

    TickPerReadClock clock;
    const auto budget = static_cast<std::int64_t>(1 + busy.size() + kKeys / 2);
    const std::uint64_t expired_before = counter_value("auth.batch.verify_expired");
    const BatchResult got =
        engine.verify_batch(requests, &pool, common::Deadline::after_us(budget, &clock));
    const std::uint64_t expired_delta = counter_value("auth.batch.verify_expired") - expired_before;

    std::vector<int> served(kKeys, -1);  // per key: 1 served, 0 expired
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const BatchDecision& d = got.decisions[i];
      const bool ok = d.status != BatchStatus::Expired;
      if (ok) {
        EXPECT_TRUE(d.known) << i;
        EXPECT_EQ(d.status, reference.decisions[i].status) << i;
        EXPECT_EQ(d.decision.distance, reference.decisions[i].decision.distance) << i;
      } else {
        EXPECT_EQ(d.reason, common::ErrorCode::DeadlineExceeded) << i;
        EXPECT_FALSE(d.known) << i;
      }
      int& outcome = served[key_of[i]];
      if (outcome < 0) {
        outcome = ok ? 1 : 0;
      }
      EXPECT_EQ(outcome, ok ? 1 : 0) << "members of key " << key_of[i] << " differ, request "
                                     << i << ", " << shards << " shards";
    }
    const auto served_keys = static_cast<std::size_t>(std::count(served.begin(), served.end(), 1));
    for (std::size_t key = 0; key < kKeys; ++key) {
      EXPECT_EQ(served[key], key < served_keys ? 1 : 0)
          << "served keys are not a prefix at key " << key << ", " << shards << " shards";
    }
    EXPECT_GT(served_keys, 0u) << shards << " shards";
    EXPECT_LT(served_keys, kKeys) << shards << " shards";
    EXPECT_EQ(served_keys, kKeys / 2) << shards << " shards";
    EXPECT_EQ(got.stats.expired, (kKeys - served_keys) * kUsersPerKey) << shards << " shards";
    EXPECT_EQ(expired_delta, got.stats.expired) << shards << " shards";
  }
}

// ------------------------------------------------------ resilient layer

/// Shared scenario scaffolding: N users enrolled identically into a
/// ResilientVerifier and a plain ShardedVerifier reference.
struct Scenario {
  explicit Scenario(std::size_t shards, ResilienceConfig config = {}, std::size_t users = 24)
      : resilient(shards, config), reference(shards) {
    Rng rng(33);
    for (std::size_t u = 0; u < users; ++u) {
      prints.push_back(random_print(rng));
      // A few shared seed epochs so the coalesced path has real groups.
      const auto tmpl = make_template(prints[u], 700 + u % 4, static_cast<std::uint32_t>(u));
      resilient.enroll(user_name(u), tmpl);
      reference.enroll(user_name(u), tmpl);
      requests.push_back({user_name(u), prints[u]});
    }
  }

  ResilientVerifier resilient;
  ShardedVerifier reference;
  std::vector<std::vector<float>> prints;
  std::vector<VerifyRequest> requests;
};

TEST(ResilientVerifier, HealthyPathIsTransparent) {
  Scenario sc(4);
  // Both calls run the engine's one shard fan-out, so they report the
  // same coalescing accounting.
  const char* shard_names[] = {"auth.shard.verify_total", "auth.shard.coalesced_groups",
                               "auth.shard.coalesced_requests", "auth.shard.singleton_requests"};
  const auto shard_counters = [&] {
    std::vector<std::uint64_t> values;
    for (const char* name : shard_names) {
      values.push_back(counter_value(name));
    }
    return values;
  };
  const std::vector<std::uint64_t> at_start = shard_counters();
  const BatchResult want = sc.reference.verify_batch(sc.requests);
  const std::vector<std::uint64_t> after_reference = shard_counters();
  const BatchResult got = sc.resilient.verify_batch(sc.requests);
  const std::vector<std::uint64_t> after_resilient = shard_counters();
  for (std::size_t n = 0; n < std::size(shard_names); ++n) {
    EXPECT_EQ(after_resilient[n] - after_reference[n], after_reference[n] - at_start[n])
        << shard_names[n];
  }
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (std::size_t i = 0; i < want.decisions.size(); ++i) {
    EXPECT_EQ(got.decisions[i].status, want.decisions[i].status) << i;
    EXPECT_EQ(got.decisions[i].known, want.decisions[i].known) << i;
    EXPECT_EQ(got.decisions[i].key_version, want.decisions[i].key_version) << i;
    EXPECT_FALSE(got.decisions[i].degraded) << i;
    // Bit-identical distance: resilience must be containment, not noise.
    EXPECT_EQ(got.decisions[i].decision.distance, want.decisions[i].decision.distance) << i;
  }
  EXPECT_EQ(got.stats.shed, 0u);
  EXPECT_EQ(got.stats.expired, 0u);
  EXPECT_EQ(got.stats.degraded, 0u);
  EXPECT_EQ(got.stats.known, want.stats.known);
  EXPECT_EQ(got.stats.accepted, want.stats.accepted);
}

TEST(ResilientVerifier, ShedCountIsExactByArrivalOrder) {
  ResilienceConfig config;
  config.queue_capacity = 2;
  Scenario sc(2, config, /*users=*/16);

  // Replay admission arithmetic: serial, in request order, per-shard cap.
  std::vector<std::size_t> arrivals(sc.resilient.shard_count(), 0);
  std::vector<bool> expect_shed;
  for (const VerifyRequest& r : sc.requests) {
    const std::size_t s = sc.resilient.shard_for(r.user);
    expect_shed.push_back(arrivals[s] >= config.queue_capacity);
    ++arrivals[s];
  }
  const auto expected_shed =
      static_cast<std::size_t>(std::count(expect_shed.begin(), expect_shed.end(), true));
  ASSERT_GT(expected_shed, 0u);  // 16 users over 2 shards x capacity 2 must shed

  const std::uint64_t shed_before = counter_value("auth.resil.shed");
  const std::uint64_t admitted_before = counter_value("auth.resil.admitted");
  for (int round = 0; round < 3; ++round) {
    const BatchResult got = sc.resilient.verify_batch(sc.requests);
    EXPECT_EQ(got.stats.shed, expected_shed) << "round " << round;
    for (std::size_t i = 0; i < sc.requests.size(); ++i) {
      if (expect_shed[i]) {
        EXPECT_EQ(got.decisions[i].status, BatchStatus::Shed) << i;
        EXPECT_EQ(got.decisions[i].reason, common::ErrorCode::Overloaded) << i;
        EXPECT_FALSE(got.decisions[i].known) << i;
      } else {
        EXPECT_TRUE(got.decisions[i].known) << i;
      }
    }
  }
  EXPECT_EQ(counter_value("auth.resil.shed"), shed_before + 3 * expected_shed);
  EXPECT_EQ(counter_value("auth.resil.admitted"),
            admitted_before + 3 * (sc.requests.size() - expected_shed));
}

TEST(ResilientVerifier, ExpiredDeadlineRejectsAtAdmission) {
  Scenario sc(4);
  common::VirtualClock clock;
  const auto deadline = common::Deadline::after_us(50, &clock);
  clock.advance_us(50);
  const std::uint64_t expired_before = counter_value("auth.resil.expired");
  const BatchResult got = sc.resilient.verify_batch(sc.requests, nullptr, deadline);
  EXPECT_EQ(got.stats.expired, sc.requests.size());
  EXPECT_EQ(got.stats.shed, 0u);
  for (const BatchDecision& d : got.decisions) {
    EXPECT_EQ(d.status, BatchStatus::Expired);
    EXPECT_EQ(d.reason, common::ErrorCode::DeadlineExceeded);
  }
  EXPECT_EQ(counter_value("auth.resil.expired"), expired_before + sc.requests.size());
}

TEST(ResilientVerifier, SlowShardStallExpiresExactlyItsOwnRequests) {
  Scenario sc(4);
  common::VirtualClock clock;
  constexpr std::size_t kStalled = 2;
  // 50ms of scripted stall against a 5ms budget: every request routed to
  // the stalled shard expires; every other shard is untouched. The clock
  // never advances, so the counts hold for any worker interleaving.
  sc.resilient.faults().arm_slow_shard(kStalled, 50'000, /*batches=*/1);
  const auto deadline = common::Deadline::after_us(5'000, &clock);
  const BatchResult got = sc.resilient.verify_batch(sc.requests, nullptr, deadline);

  std::size_t routed_to_stalled = 0;
  for (std::size_t i = 0; i < sc.requests.size(); ++i) {
    if (sc.resilient.shard_for(sc.requests[i].user) == kStalled) {
      ++routed_to_stalled;
      EXPECT_EQ(got.decisions[i].status, BatchStatus::Expired) << i;
    } else {
      EXPECT_TRUE(got.decisions[i].known) << i;
      EXPECT_FALSE(got.decisions[i].degraded) << i;
    }
  }
  ASSERT_GT(routed_to_stalled, 0u);
  EXPECT_EQ(got.stats.expired, routed_to_stalled);

  // The single charge is spent: the next batch is fully healthy.
  const BatchResult next = sc.resilient.verify_batch(sc.requests, nullptr, deadline);
  EXPECT_EQ(next.stats.expired, 0u);
  EXPECT_EQ(next.stats.known, sc.requests.size());
}

TEST(ResilientVerifier, EngagedBreakerServesDegradedModeExactly) {
  ResilienceConfig config;
  config.breaker.failure_threshold = 1;
  Scenario sc(4, config);
  constexpr std::size_t kBroken = 1;

  // Warm the shared cache through one healthy pass, then trip the shard.
  const BatchResult healthy = sc.resilient.verify_batch(sc.requests);
  sc.resilient.breaker(kBroken).record_failure();
  ASSERT_TRUE(sc.resilient.breaker(kBroken).engaged());

  const std::uint64_t degraded_before = counter_value("auth.resil.degraded");
  const BatchResult got = sc.resilient.verify_batch(sc.requests);
  std::size_t on_broken = 0;
  for (std::size_t i = 0; i < sc.requests.size(); ++i) {
    const bool broken = sc.resilient.shard_for(sc.requests[i].user) == kBroken;
    on_broken += broken ? 1 : 0;
    EXPECT_EQ(got.decisions[i].degraded, broken) << i;
    // Degraded answers are exact: same matrix (cache peek), same distance.
    EXPECT_TRUE(got.decisions[i].known) << i;
    EXPECT_EQ(got.decisions[i].status, healthy.decisions[i].status) << i;
    EXPECT_EQ(got.decisions[i].decision.distance, healthy.decisions[i].decision.distance) << i;
  }
  ASSERT_GT(on_broken, 0u);
  EXPECT_EQ(got.stats.degraded, on_broken);
  EXPECT_EQ(counter_value("auth.resil.degraded"), degraded_before + on_broken);

  // Degraded mode keeps the totality taxonomy for malformed traffic.
  std::string broken_user;
  for (const VerifyRequest& r : sc.requests) {
    if (sc.resilient.shard_for(r.user) == kBroken) {
      broken_user = r.user;
      break;
    }
  }
  const std::vector<VerifyRequest> junk{{broken_user, {}}, {"nobody-" + broken_user, {1.0f}}};
  const BatchResult junk_result = sc.resilient.verify_batch(junk);
  EXPECT_EQ(junk_result.decisions[0].status, BatchStatus::Invalid);
  EXPECT_EQ(junk_result.decisions[0].reason, common::ErrorCode::InvalidInput);
}

TEST(ResilientVerifier, DegradedColdCacheMissIsATypedShed) {
  ResilienceConfig config;
  config.breaker.failure_threshold = 1;
  Scenario sc(1, config);  // one shard: every request hits the broken one
  sc.resilient.breaker(0).record_failure();
  ASSERT_TRUE(sc.resilient.breaker(0).engaged());

  // No healthy pass ran, so the cache holds nothing the degraded path
  // may serve: every enrolled request is shed, honestly typed.
  const std::uint64_t miss_before = counter_value("auth.resil.degraded_miss");
  const BatchResult got = sc.resilient.verify_batch(sc.requests);
  EXPECT_EQ(got.stats.shed, sc.requests.size());
  EXPECT_EQ(got.stats.degraded, 0u);
  for (const BatchDecision& d : got.decisions) {
    EXPECT_EQ(d.status, BatchStatus::Shed);
    EXPECT_EQ(d.reason, common::ErrorCode::Overloaded);
  }
  EXPECT_EQ(counter_value("auth.resil.degraded_miss"), miss_before + sc.requests.size());
}

TEST(ResilientVerifier, DegradedShardServesAColdKeyAHealthyShardBuildsInTheSameCall) {
  // One call, cold cache: a degraded shard needs keys that healthy shards
  // need too, and one key (the lone user's) that only it needs. Each key
  // is looked up once per call: the healthy shards' get builds the shared
  // keys and the degraded shard serves from them with its bit set; the
  // lone key is only peeked, so its request sheds. No lane timing enters
  // the outcome, so every run at every pool size is identical.
  constexpr std::size_t kBroken = 1;
  constexpr std::uint64_t kLoneSeed = 9000;
  ResilienceConfig config;
  config.breaker.failure_threshold = 1;
  std::vector<BatchResult> runs;
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    common::ThreadPool pool(lanes);
    for (int repeat = 0; repeat < 3; ++repeat) {
      Scenario sc(4, config);
      std::string lone = "lone";
      while (sc.resilient.shard_for(lone) != kBroken) {
        lone += "+";
      }
      const StoredTemplate tmpl = make_template(sc.prints[0], kLoneSeed, 1);
      sc.resilient.enroll(lone, tmpl);
      sc.reference.enroll(lone, tmpl);
      sc.requests.push_back({lone, sc.prints[0]});
      sc.resilient.breaker(kBroken).record_failure();
      ASSERT_TRUE(sc.resilient.breaker(kBroken).engaged());

      const BatchResult want = sc.reference.verify_batch(sc.requests, &pool);
      const BatchResult got = sc.resilient.verify_batch(sc.requests, &pool);
      std::size_t degraded = 0;
      for (std::size_t i = 0; i < sc.requests.size(); ++i) {
        const BatchDecision& d = got.decisions[i];
        if (sc.requests[i].user == lone) {
          EXPECT_EQ(d.status, BatchStatus::Shed);
          EXPECT_EQ(d.reason, common::ErrorCode::Overloaded);
          continue;
        }
        const bool broken = sc.resilient.shard_for(sc.requests[i].user) == kBroken;
        degraded += broken ? 1 : 0;
        EXPECT_EQ(d.degraded, broken) << i;
        EXPECT_EQ(d.status, want.decisions[i].status) << i;
        EXPECT_EQ(d.decision.distance, want.decisions[i].decision.distance) << i;
      }
      ASSERT_GT(degraded, 0u);
      EXPECT_EQ(got.stats.degraded, degraded);
      EXPECT_EQ(got.stats.shed, 1u);
      runs.push_back(got);
    }
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < runs[0].decisions.size(); ++i) {
      const BatchDecision& a = runs[0].decisions[i];
      const BatchDecision& b = runs[r].decisions[i];
      EXPECT_EQ(a.status, b.status) << "run " << r << " request " << i;
      EXPECT_EQ(a.degraded, b.degraded) << "run " << r << " request " << i;
      EXPECT_EQ(a.decision.distance, b.decision.distance) << "run " << r << " request " << i;
    }
  }
}

TEST(ResilientVerifier, PersistFailuresTripBreakerAndProbeRecloses) {
  const SleepHookGuard guard(&swallow_sleep);
  const std::string path = store_path("persist_breaker");
  clean_disk(path);

  common::VirtualClock clock;
  ResilienceConfig config;
  config.clock = &clock;
  config.breaker.failure_threshold = 2;
  config.breaker.open_duration_us = 1'000'000;
  Scenario sc(2, config, /*users=*/8);

  // An EIO burst long enough to exhaust every retry of several saves.
  sc.resilient.faults().arm_store_fault_burst(
      {.kind = common::IoFaultConfig::Kind::TransientError, .fail_at_byte = 0, .failures = 100});

  EXPECT_FALSE(sc.resilient.persist_shard(0, path).ok());
  EXPECT_EQ(sc.resilient.breaker(0).trips(), 0u);  // one failure of two
  EXPECT_FALSE(sc.resilient.persist_shard(0, path).ok());
  EXPECT_EQ(sc.resilient.breaker(0).trips(), 1u);
  ASSERT_EQ(sc.resilient.breaker(0).state(), BreakerState::Open);

  // While Open, persistence is rejected up front with a typed Overloaded
  // error — the store is not touched, so the armed burst is not consumed.
  const auto rejected = sc.resilient.persist_shard(0, path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, common::ErrorCode::Overloaded);

  // Verification meanwhile degrades instead of failing: shard 0 serves
  // from cache (warmed here by one pre-trip pass on shard 1's engine —
  // the cache is shared, so run one healthy batch through the engine).
  sc.resilient.engine().verify_batch(sc.requests);  // warm shared cache
  const BatchResult during = sc.resilient.verify_batch(sc.requests);
  for (std::size_t i = 0; i < sc.requests.size(); ++i) {
    EXPECT_EQ(during.decisions[i].degraded,
              sc.resilient.shard_for(sc.requests[i].user) == 0)
        << i;
  }

  // Recovery: the fault clears, the cooldown elapses, and the next
  // persist is admitted as the half-open probe; its success re-closes.
  sc.resilient.faults().clear_store_faults();
  clock.advance_us(1'000'000);
  const auto probe = sc.resilient.persist_shard(0, path);
  EXPECT_TRUE(probe.ok()) << probe.error().message;
  EXPECT_EQ(sc.resilient.breaker(0).state(), BreakerState::Closed);
  EXPECT_EQ(sc.resilient.breaker(0).closes(), 1u);

  // Fully healthy again: no degraded bit anywhere.
  const BatchResult after = sc.resilient.verify_batch(sc.requests);
  EXPECT_EQ(after.stats.degraded, 0u);
  EXPECT_EQ(after.stats.known, sc.requests.size());
  clean_disk(path);
}

TEST(ResilientVerifier, PoisonedCacheEntrySelfHealsThroughService) {
  Scenario sc(2);
  const BatchResult healthy = sc.resilient.verify_batch(sc.requests);

  // Poison every seed epoch the scenario enrolled.
  std::size_t poisoned = 0;
  for (std::uint64_t seed = 700; seed < 704; ++seed) {
    poisoned += sc.resilient.faults().poison_matrix(sc.resilient.engine().matrix_cache(), seed)
                    ? 1
                    : 0;
  }
  ASSERT_EQ(poisoned, 4u);

  // The healthy path detects every poisoned entry, rebuilds, and the
  // decisions come out bit-identical — no silent wrong answers.
  const std::uint64_t detected_before = counter_value("auth.matrix_cache.poison_detected");
  const BatchResult got = sc.resilient.verify_batch(sc.requests);
  EXPECT_GE(counter_value("auth.matrix_cache.poison_detected"), detected_before + 4);
  for (std::size_t i = 0; i < sc.requests.size(); ++i) {
    EXPECT_EQ(got.decisions[i].status, healthy.decisions[i].status) << i;
    EXPECT_EQ(got.decisions[i].decision.distance, healthy.decisions[i].decision.distance) << i;
  }
}

TEST(ResilientVerifier, CountersAreThreadCountInvariant) {
  ResilienceConfig config;
  config.queue_capacity = 3;
  const char* names[] = {"auth.resil.admitted",
                         "auth.resil.shed",
                         "auth.resil.expired",
                         "auth.resil.degraded",
                         "auth.resil.degraded_miss",
                         "auth.shard.verify_total",
                         "auth.shard.coalesced_groups",
                         "auth.shard.coalesced_requests",
                         "auth.shard.singleton_requests",
                         "auth.batch.verify_total"};
  std::vector<std::uint64_t> deltas;
  for (const std::size_t workers : {1u, 4u}) {
    Scenario sc(4, config, /*users=*/20);
    common::ThreadPool pool(workers);
    std::vector<std::uint64_t> before;
    for (const char* name : names) {
      before.push_back(counter_value(name));
    }
    const BatchResult got = sc.resilient.verify_batch(sc.requests, &pool);
    std::vector<std::uint64_t> delta;
    for (std::size_t n = 0; n < std::size(names); ++n) {
      delta.push_back(counter_value(names[n]) - before[n]);
    }
    EXPECT_GT(got.stats.shed, 0u);
    if (deltas.empty()) {
      deltas = delta;
    } else {
      EXPECT_EQ(deltas, delta) << "counter deltas differ between 1 and 4 workers";
    }
  }
}

}  // namespace
}  // namespace mandipass::auth::resilience
