#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace mandipass::common {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {0UL, 1UL, 7UL, 64UL, 1000UL}) {
    std::vector<std::atomic<int>> visits(n);
    pool.parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPool, ChunksAreContiguousAndOrdered) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(10, 110, 5, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 10u);
  EXPECT_EQ(chunks.back().second, 110u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i - 1].second, chunks[i].first);
  }
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(0, 100, 1, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, SmallRangeRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  // range < 2 * grain => inline on the caller.
  pool.parallel_for(0, 7, 4, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 7u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 16, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 8, 1, [&](std::size_t jlo, std::size_t jhi) {
        total.fetch_add(jhi - jlo, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 16u * 8u);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100, 1,
                                 [&](std::size_t lo, std::size_t) {
                                   if (lo >= 0) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<std::size_t> n{0};
  pool.parallel_for(0, 10, 1, [&](std::size_t lo, std::size_t hi) {
    n.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(n.load(), 10u);
}

TEST(ThreadPool, PerIndexResultsIdenticalAcrossThreadCounts) {
  const std::size_t n = 512;
  std::vector<double> reference(n);
  for (std::size_t i = 0; i < n; ++i) {
    reference[i] = static_cast<double>(i) * 0.3 + 1.0;
  }
  auto compute = [&](std::size_t lanes) {
    ThreadPool pool(lanes);
    std::vector<double> out(n, 0.0);
    pool.parallel_for(0, n, 8, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        out[i] = static_cast<double>(i) * 0.3 + 1.0;
      }
    });
    return out;
  };
  EXPECT_EQ(compute(1), reference);
  EXPECT_EQ(compute(2), reference);
  EXPECT_EQ(compute(8), reference);
}

#if defined(__linux__)
TEST(ThreadPool, DefaultSizeFollowsTheAffinityMask) {
  // Run on a thread of its own so that pinning it cannot leak into the
  // rest of the suite; its mask is restored all the same.
  std::size_t full_lanes = 0;
  std::size_t pinned_lanes = 0;
  int full_cpus = 0;
  std::thread probe([&] {
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    full_cpus = CPU_COUNT(&saved);
    full_lanes = ThreadPool(0).thread_count();
    int first = 0;
    while (!CPU_ISSET(first, &saved)) {
      ++first;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    pinned_lanes = ThreadPool(0).thread_count();
    EXPECT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  });
  probe.join();
  EXPECT_EQ(full_lanes, static_cast<std::size_t>(full_cpus));
  EXPECT_EQ(pinned_lanes, 1u);
}
#endif

TEST(ThreadPool, GlobalPoolResize) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global_thread_count(), 3u);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global_thread_count(), 1u);
  std::size_t covered = 0;
  parallel_for(0, 10, 1, [&](std::size_t lo, std::size_t hi) { covered += hi - lo; });
  EXPECT_EQ(covered, 10u);  // single lane: safe to accumulate unsynchronised
}

}  // namespace
}  // namespace mandipass::common
