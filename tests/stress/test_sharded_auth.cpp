// Concurrency stress for auth::ShardedVerifier (ctest labels:
// stress + service; runs under the default, tsan AND asan presets, and
// compiles with -DMANDIPASS_THREAD_SAFETY under the tsafety preset's
// flags since it only uses public API).
//
// Same torn-read oracle as test_concurrent_auth.cpp, now across shards
// and through the coalescing batch path: writers continuously re-key and
// revoke users while readers verify via verify_one and verify_batch
// (whose same-seed requests share packed-GEMM tiles). Every template
// generation's exact expected distance is precomputed; a decision is
// valid iff its key_version exists and its distance matches that
// generation bit-for-bit. A torn read — template floats from one
// generation, seed/version from another, or a coalesced tile mixing
// snapshots — cannot reproduce any expected distance.
//
// The resilient wrapper gets the same treatment for its callers:
// concurrent verify_batch calls on one ResilientVerifier must each be
// decided exactly as a lone caller's would be, and its degraded mode must
// decide duplicates against one snapshot, as the healthy path does.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "auth/gaussian_matrix.h"
#include "auth/resilience/resilient_verifier.h"
#include "auth/sharded_verifier.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace mandipass::auth {
namespace {

constexpr std::size_t kDim = 24;
constexpr std::size_t kShards = 8;
constexpr std::size_t kUsers = 12;  // ~1.5 users per shard under FNV routing
constexpr std::uint32_t kGenerations = 5;
constexpr std::size_t kWriters = 3;
constexpr std::size_t kReaders = 3;
constexpr std::size_t kWriterOps = 300;
constexpr std::size_t kReaderOps = 300;

std::string user_name(std::size_t u) { return "user" + std::to_string(u); }

struct Generation {
  StoredTemplate tmpl;
  double expected_distance = 0.0;  ///< probe vs this generation's template
};

struct UserFixture {
  std::vector<float> probe;
  std::vector<Generation> generations;  ///< index = key_version
};

UserFixture make_user_fixture(std::size_t u) {
  Rng rng(0xD15C + u);
  UserFixture f;
  f.probe.resize(kDim);
  for (float& x : f.probe) {
    x = static_cast<float>(rng.uniform());
  }
  for (std::uint32_t v = 0; v < kGenerations; ++v) {
    // Re-key with a fresh seed AND a shifted reference print each
    // generation, so no torn (data, seed/version) combination can land
    // on any expected distance. Generations of different users share
    // seeds (u % 3) so the coalescing path forms real multi-user groups
    // — a tile mixing two users' snapshots would corrupt both distances.
    std::vector<float> reference = f.probe;
    reference[v % kDim] += 0.2f * static_cast<float>(v + 1);
    const std::uint64_t seed = 1000 * (u % 3 + 1) + v;
    const GaussianMatrix g(seed, kDim);
    Generation gen;
    gen.tmpl.data = g.transform(reference);
    gen.tmpl.matrix_seed = seed;
    gen.tmpl.key_version = v;
    gen.expected_distance =
        Verifier(kPaperThreshold).verify(g.transform(f.probe), gen.tmpl.data).distance;
    f.generations.push_back(std::move(gen));
  }
  return f;
}

TEST(ShardedAuthStress, StormAcrossShardsNeverObservesTornState) {
  ShardedVerifier engine(kShards);
  std::vector<UserFixture> fixtures;
  for (std::size_t u = 0; u < kUsers; ++u) {
    fixtures.push_back(make_user_fixture(u));
    engine.enroll(user_name(u), fixtures[u].generations[0].tmpl);
  }

  std::atomic<std::size_t> bad_version{0};
  std::atomic<std::size_t> bad_distance{0};
  std::atomic<std::size_t> observed{0};

  auto writer = [&](std::size_t id) {
    Rng rng(0x4444 + id);
    for (std::size_t op = 0; op < kWriterOps; ++op) {
      const std::size_t u = rng.uniform_index(kUsers);
      if (rng.bernoulli(0.15)) {
        engine.revoke(user_name(u));
      } else {
        const auto v = static_cast<std::uint32_t>(rng.uniform_index(kGenerations));
        engine.enroll(user_name(u), fixtures[u].generations[v].tmpl);
      }
    }
  };

  auto check_decision = [&](std::size_t u, const BatchDecision& d) {
    if (!d.known) {
      return;  // revoked at snapshot time — valid outcome
    }
    observed.fetch_add(1, std::memory_order_relaxed);
    if (d.key_version >= kGenerations) {
      bad_version.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (d.decision.distance != fixtures[u].generations[d.key_version].expected_distance) {
      bad_distance.fetch_add(1, std::memory_order_relaxed);
    }
  };

  auto reader = [&](std::size_t id) {
    Rng rng(0x5555 + id);
    for (std::size_t op = 0; op < kReaderOps; ++op) {
      if (rng.bernoulli(0.4)) {
        // Coalesced batch path — one request per user plus duplicates of
        // a rotating user, so same-shard AND same-seed groups form while
        // writers churn underneath.
        std::vector<VerifyRequest> requests;
        for (std::size_t u = 0; u < kUsers; ++u) {
          requests.push_back({user_name(u), fixtures[u].probe});
        }
        const std::size_t dup = op % kUsers;
        requests.push_back({user_name(dup), fixtures[dup].probe});
        requests.push_back({user_name(dup), fixtures[dup].probe});
        const BatchResult result = engine.verify_batch(requests);
        for (std::size_t u = 0; u < kUsers; ++u) {
          check_decision(u, result.decisions[u]);
        }
        check_decision(dup, result.decisions[kUsers]);
        check_decision(dup, result.decisions[kUsers + 1]);
        // Duplicates decided in one shard batch share one snapshot:
        // either both missed (revoked) or both match expectations, which
        // check_decision already enforced; their versions must agree.
        if (result.decisions[kUsers].known && result.decisions[kUsers + 1].known) {
          if (result.decisions[kUsers].key_version !=
              result.decisions[kUsers + 1].key_version) {
            bad_version.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } else {
        const std::size_t u = rng.uniform_index(kUsers);
        check_decision(u, engine.verify_one(user_name(u), fixtures[u].probe));
      }
    }
  };

  common::ThreadPool::set_global_threads(4);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back(writer, w);
  }
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back(reader, r);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  common::ThreadPool::set_global_threads(1);

  EXPECT_EQ(bad_version.load(), 0u);
  EXPECT_EQ(bad_distance.load(), 0u);
  EXPECT_GT(observed.load(), 0u);

  // Post-storm: every shard still serves consistent state.
  for (std::size_t u = 0; u < kUsers; ++u) {
    engine.enroll(user_name(u), fixtures[u].generations[0].tmpl);
    const BatchDecision d = engine.verify_one(user_name(u), fixtures[u].probe);
    ASSERT_TRUE(d.known);
    EXPECT_EQ(d.decision.distance, fixtures[u].generations[0].expected_distance);
  }
  EXPECT_EQ(engine.size(), kUsers);
}

// What one duplicate-heavy churn storm observed.
struct StormFindings {
  std::size_t misplaced = 0;  ///< decisions off their generation's distance, or wrongly typed
  std::size_t split = 0;      ///< batches whose alice decisions used several key versions
};

// Many threads hammering verify_batch with duplicate-heavy batches while
// a writer re-keys the duplicated user, on `engine` (a ShardedVerifier or
// a ResilientVerifier): the regression scenario for the router
// deadlock/order-inversion fix, under real contention. The storm ending
// at all proves no deadlock; the index-alignment checks prove order; the
// per-batch version check proves the duplicates share one snapshot;
// tsan/asan prove the memory story. With `expect_degraded` every decision
// must also be served, and served degraded.
template <typename Engine>
StormFindings duplicate_heavy_storm(Engine& engine, const UserFixture& fa, const UserFixture& fb,
                                    bool expect_degraded) {
  engine.enroll("alice", fa.generations[0].tmpl);
  engine.enroll("bob", fb.generations[0].tmpl);

  std::atomic<std::size_t> misplaced{0};
  std::atomic<std::size_t> split{0};
  std::atomic<bool> stop{false};

  std::thread churn([&] {
    Rng rng(0x6666);
    while (!stop.load(std::memory_order_acquire)) {
      const auto v = static_cast<std::uint32_t>(rng.uniform_index(kGenerations));
      engine.enroll("alice", fa.generations[v].tmpl);
    }
  });

  common::ThreadPool::set_global_threads(4);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (std::size_t op = 0; op < 200; ++op) {
        // alice at even indices, bob at odd — a swap is detectable
        // because bob's generation-0 distance differs from all of
        // alice's generations.
        std::vector<VerifyRequest> requests;
        for (std::size_t i = 0; i < 16; ++i) {
          if (i % 2 == 0) {
            requests.push_back({"alice", fa.probe});
          } else {
            requests.push_back({"bob", fb.probe});
          }
        }
        const BatchResult result = engine.verify_batch(requests);
        std::optional<std::uint32_t> alice_version;
        bool alice_split = false;
        for (std::size_t i = 0; i < 16; ++i) {
          const BatchDecision& d = result.decisions[i];
          if (expect_degraded && !(d.known && d.degraded)) {
            misplaced.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (!d.known) {
            continue;
          }
          const UserFixture& f = (i % 2 == 0) ? fa : fb;
          if (d.key_version >= kGenerations ||
              d.decision.distance != f.generations[d.key_version].expected_distance) {
            misplaced.fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 2 == 0) {
            alice_split = alice_split || (alice_version && *alice_version != d.key_version);
            alice_version = d.key_version;
          }
        }
        if (alice_split) {
          split.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : readers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  churn.join();
  common::ThreadPool::set_global_threads(1);
  return {misplaced.load(), split.load()};
}

TEST(ShardedAuthStress, DuplicateHeavyBatchesUnderChurnStayOrdered) {
  const UserFixture fa = make_user_fixture(0);
  const UserFixture fb = make_user_fixture(1);

  ShardedVerifier engine(kShards);
  const StormFindings healthy = duplicate_heavy_storm(engine, fa, fb, false);
  EXPECT_EQ(healthy.misplaced, 0u);
  EXPECT_EQ(healthy.split, 0u);

  // Degraded mode on every shard: each breaker tripped, and a virtual
  // clock that never advances keeps it from cooling down. Every
  // generation's matrix is cached, so every request is served — exactly,
  // degraded, and against one snapshot per batch like the healthy path.
  common::VirtualClock clock;
  resilience::ResilienceConfig config;
  config.clock = &clock;
  config.breaker.failure_threshold = 1;
  resilience::ResilientVerifier service(kShards, config);
  for (std::size_t s = 0; s < kShards; ++s) {
    service.breaker(s).record_failure();
    ASSERT_TRUE(service.breaker(s).engaged());
  }
  for (const UserFixture* f : {&fa, &fb}) {
    for (const Generation& gen : f->generations) {
      ASSERT_NE(service.engine().matrix_cache().get(gen.tmpl.matrix_seed, kDim), nullptr);
    }
  }
  const StormFindings degraded = duplicate_heavy_storm(service, fa, fb, true);
  EXPECT_EQ(degraded.misplaced, 0u);
  EXPECT_EQ(degraded.split, 0u);
}

// Two callers share one ResilientVerifier, each calling verify_batch over
// and over with its own batch (64 requests and 3). Admission is per call,
// so every decision must equal the one the same batch gets from a lone
// caller. The capacity sheds part of the big batch on every call, so a
// bound or an index list leaking between callers changes which requests
// shed — or writes past the small caller's decision vector.
TEST(ShardedAuthStress, ConcurrentResilientCallersMatchALoneCaller) {
  resilience::ResilienceConfig config;
  config.queue_capacity = 6;
  resilience::ResilientVerifier service(kShards, config);
  std::vector<UserFixture> fixtures;
  for (std::size_t u = 0; u < kUsers; ++u) {
    fixtures.push_back(make_user_fixture(u));
    service.enroll(user_name(u), fixtures[u].generations[0].tmpl);
  }
  const auto make_batch = [&](std::size_t n, std::size_t first_user) {
    std::vector<VerifyRequest> batch;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t u = (first_user + i) % kUsers;
      batch.push_back({user_name(u), fixtures[u].probe});
    }
    return batch;
  };
  const std::vector<std::vector<VerifyRequest>> batches = {make_batch(64, 0), make_batch(3, 5)};
  std::vector<BatchResult> lone;
  for (const auto& batch : batches) {
    lone.push_back(service.verify_batch(batch));
  }
  ASSERT_GT(lone[0].stats.shed, 0u);  // the capacity bites on the big batch
  ASSERT_GT(lone[0].stats.known, 0u);
  ASSERT_EQ(lone[1].stats.known, 3u);

  constexpr std::size_t kRounds = 200;
  std::atomic<std::size_t> mismatched{0};
  common::ThreadPool::set_global_threads(4);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < batches.size(); ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const BatchResult got = service.verify_batch(batches[c]);
        const std::vector<BatchDecision>& want = lone[c].decisions;
        if (got.decisions.size() != want.size()) {
          mismatched.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t i = 0; i < want.size(); ++i) {
          const BatchDecision& d = got.decisions[i];
          if (d.status != want[i].status || d.reason != want[i].reason ||
              d.known != want[i].known || d.key_version != want[i].key_version ||
              d.degraded != want[i].degraded ||
              d.decision.distance != want[i].decision.distance) {
            mismatched.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  common::ThreadPool::set_global_threads(1);

  EXPECT_EQ(mismatched.load(), 0u);
}

}  // namespace
}  // namespace mandipass::auth
