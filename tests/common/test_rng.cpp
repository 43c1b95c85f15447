#include "common/rng.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include <algorithm>
#include <cmath>

namespace mandipass {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differ = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 60);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum2 += (x - 10.0) * (x - 10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / n), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
  }
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto k = rng.uniform_index(10);
    ASSERT_LT(k, 10u);
    ++counts[k];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, UniformIndexOneAlwaysZero) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_index(1), 0u);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(41);
  const auto p = rng.permutation(100);
  ASSERT_EQ(p.size(), 100u);
  std::vector<bool> seen(100, false);
  for (std::size_t v : p) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, PermutationEmpty) {
  Rng rng(43);
  EXPECT_TRUE(rng.permutation(0).empty());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(47);
  Rng child = parent.fork();
  // Child's outputs should differ from the parent's subsequent outputs.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkDeterministic) {
  Rng a(53);
  Rng b(53);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ca(), cb());
  }
}

TEST(Rng, DiscardNormalsLeavesTheSameGeneratorAsDrawing) {
  // Odd counts end mid-pair (the skip's tail leaves the spare pending);
  // a spare pending before the skip must be consumed by it.
  for (const std::uint64_t n : {0ULL, 1ULL, 2ULL, 3ULL, 4096ULL, 4097ULL}) {
    for (const bool spare_pending : {false, true}) {
      Rng drawn(61);
      Rng skipped(61);
      if (spare_pending) {
        drawn.normal();
        skipped.normal();
      }
      for (std::uint64_t i = 0; i < n; ++i) {
        drawn.normal();
      }
      skipped.discard_normals(n);
      for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(drawn.normal(), skipped.normal())
            << "n=" << n << " spare=" << spare_pending << " normal #" << i;
      }
      for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(drawn(), skipped()) << "n=" << n << " spare=" << spare_pending << " raw #" << i;
      }
    }
  }
}

TEST(Rng, PreconditionViolations) {
  Rng rng(59);
  EXPECT_THROW(rng.uniform_index(0), PreconditionError);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
  EXPECT_THROW(rng.bernoulli(1.5), PreconditionError);
}

}  // namespace
}  // namespace mandipass
