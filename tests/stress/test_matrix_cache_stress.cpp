// Concurrency stress for MatrixCache's lock scope (ctest label: stress;
// runs under the tsan and asan presets in CI).
//
// A lookup holds the cache mutex only for the find and the recency
// splice and runs its CRC pass over a copied shared_ptr after releasing
// it. Three races follow from that and from storage recycling, and each
// gets a test:
//   * many lookups verify one poisoned entry at once — exactly one of
//     them may drop and count it, and every caller still gets an exact
//     matrix;
//   * an entry is evicted while another thread is still verifying it —
//     the copy must keep the matrix alive and exact, and every call is
//     counted as exactly one hit or one miss;
//   * an evicted matrix that a thread still holds must never become the
//     buffer another thread's miss builds into.
// "Exact" is bit for bit against a fresh GaussianMatrix of the same
// (seed, dim). TSan independently checks the lock protocol and the
// hand-over of recycled buffers; ASan a buffer freed under a holder.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "auth/gaussian_matrix.h"
#include "auth/matrix_cache.h"
#include "common/obs.h"

namespace mandipass::auth {
namespace {

constexpr std::size_t kDim = 48;
constexpr std::size_t kThreads = 8;

std::uint64_t counter_value(const char* name) {
  return common::obs::counter(name).value();
}

std::vector<float> make_probe() {
  std::vector<float> probe(kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    probe[i] = 0.25f * static_cast<float>(i % 7) - 0.5f;
  }
  return probe;
}

// Runs body(t) on kThreads threads that are released together, so their
// lookups overlap as much as the scheduler allows.
template <typename Body>
void run_together(Body body) {
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      body(t);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
}

TEST(MatrixCacheStress, ConcurrentLookupsOfOnePoisonedEntryCountItOnce) {
  constexpr std::uint64_t kSeed = 77;
  constexpr std::size_t kRounds = 16;
  const std::vector<float> probe = make_probe();
  const std::vector<float> expected = GaussianMatrix(kSeed, kDim).transform(probe);

  MatrixCache cache;
  ASSERT_NE(cache.get(kSeed, kDim), nullptr);
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::uint64_t detected_before = counter_value("auth.matrix_cache.poison_detected");
    ASSERT_TRUE(cache.corrupt_integrity_for_test(kSeed));
    std::atomic<std::size_t> wrong{0};
    run_together([&](std::size_t) {
      const auto g = cache.get(kSeed, kDim);
      if (g == nullptr || g->transform(probe) != expected) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(wrong.load(), 0u) << "round " << round;
    EXPECT_EQ(counter_value("auth.matrix_cache.poison_detected"), detected_before + 1)
        << "round " << round;
    EXPECT_EQ(cache.size(), 1u) << "round " << round;
  }
  // The healed entry passes integrity from now on.
  const std::uint64_t detected_after = counter_value("auth.matrix_cache.poison_detected");
  EXPECT_NE(cache.peek(kSeed, kDim), nullptr);
  EXPECT_EQ(counter_value("auth.matrix_cache.poison_detected"), detected_after);
}

TEST(MatrixCacheStress, EntriesEvictedMidVerifyStayExactAndEveryCallCounts) {
  constexpr std::size_t kSeeds = 3;
  constexpr std::size_t kCallsPerThread = 200;
  const std::vector<float> probe = make_probe();
  std::vector<std::vector<float>> expected;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    expected.push_back(GaussianMatrix(100 + s, kDim).transform(probe));
  }

  // One entry for three seeds: nearly every publish evicts the entry
  // some other thread has just copied and is still verifying.
  MatrixCache cache({.max_entries = 1});
  const std::uint64_t hits_before = counter_value("auth.batch.matrix_cache_hits");
  const std::uint64_t misses_before = counter_value("auth.batch.matrix_cache_misses");
  std::atomic<std::size_t> wrong{0};
  run_together([&](std::size_t t) {
    for (std::size_t i = 0; i < kCallsPerThread; ++i) {
      const std::uint64_t s = (t + i) % kSeeds;
      const auto g = cache.get(100 + s, kDim);
      if (g == nullptr || g->seed() != 100 + s || g->transform(probe) != expected[s]) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(counter_value("auth.batch.matrix_cache_hits") - hits_before +
                counter_value("auth.batch.matrix_cache_misses") - misses_before,
            kThreads * kCallsPerThread);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MatrixCacheStress, MatricesHeldAcrossEvictionsAreNeverRecycled) {
  constexpr std::size_t kSeeds = 5;
  constexpr std::size_t kRounds = 60;
  constexpr std::size_t kChecksPerHold = 4;
  const std::vector<float> probe = make_probe();
  std::vector<std::vector<float>> expected;
  std::vector<std::uint32_t> crc;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    const GaussianMatrix fresh(200 + s, kDim);
    expected.push_back(fresh.transform(probe));
    crc.push_back(fresh.checksum());
  }

  // One entry: every miss evicts, and the miss after it builds into the
  // evicted key's buffer unless someone still holds that key. Even
  // threads hold each key they get across the odd threads' misses and
  // re-check it while they hold it.
  MatrixCache cache({.max_entries = 1});
  std::atomic<std::size_t> wrong{0};
  run_together([&](std::size_t t) {
    for (std::size_t i = 0; i < kRounds; ++i) {
      const std::uint64_t s = (t * 3 + i) % kSeeds;
      const auto g = cache.get(200 + s, kDim);
      const std::size_t checks = t % 2 == 0 ? kChecksPerHold : 1;
      for (std::size_t c = 0; c < checks; ++c) {
        if (g == nullptr || g->transform(probe) != expected[s] || g->checksum() != crc[s]) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace mandipass::auth
