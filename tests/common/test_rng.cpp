#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numbers>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/libm_kernels.h"

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

// ---- normal_floats: the batched draw is normal(), bit for bit ----

constexpr std::size_t kBlockFloats = 256;  // normal_floats' block: 128 pairs

/// Bit pattern of a float, so that a -0.0f / +0.0f or NaN mismatch counts.
std::uint32_t float_bits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// Fills `n` floats both ways from Rng(seed) (optionally with a spare
/// pending first) and expects the same bits and the same generator after.
void expect_batched_matches_per_draw(std::uint64_t seed, std::size_t n, double stddev,
                                     bool spare_pending) {
  Rng per_draw(seed);
  Rng batched(seed);
  if (spare_pending) {
    per_draw.normal();
    batched.normal();
  }
  std::vector<float> want(n);
  for (float& v : want) {
    v = static_cast<float>(per_draw.normal(0.0, stddev));
  }
  std::vector<float> got(n, -1.0f);
  batched.normal_floats(got, stddev);
  const std::string what = "n=" + std::to_string(n) + " stddev=" + std::to_string(stddev) +
                           " spare=" + std::to_string(spare_pending);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(float_bits(got[i]), float_bits(want[i])) << what << " element " << i;
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(batched.normal(), per_draw.normal()) << what << " next normal #" << i;
  }
  EXPECT_EQ(batched(), per_draw()) << what << " next raw draw";
}

TEST(Rng, NormalFloatsMatchesPerDrawNormalBitForBit) {
  const std::size_t lengths[] = {0, 1, 2, 3, kBlockFloats / 2 - 1, kBlockFloats / 2,
                                 kBlockFloats / 2 + 1, kBlockFloats - 1, kBlockFloats,
                                 kBlockFloats + 1};
  const double stddevs[] = {1.0 / std::sqrt(512.0), 1.0 / std::sqrt(3.0), 1.0, 0.0, 1e3};
  for (const std::size_t n : lengths) {
    for (const double stddev : stddevs) {
      for (const bool spare_pending : {false, true}) {
        expect_batched_matches_per_draw(61 + n, n, stddev, spare_pending);
      }
    }
  }
}

/// True when the double `d` lies within 2^12 double ulps of a float
/// rounding midpoint or outside float's normal range: the draws
/// normal_floats recomputes with libm.
bool in_guard_band(double d) {
  const auto bits = std::bit_cast<std::uint64_t>(d);
  const std::uint64_t exponent = (bits >> 52) & 0x7ff;
  const std::int64_t dropped = static_cast<std::int64_t>(bits & ((1ULL << 29) - 1));
  const bool normal_float = exponent >= 1023 - 126 && exponent <= 1023 + 127;
  return !normal_float || std::abs(dropped - (std::int64_t{1} << 28)) <= (1 << 12);
}

TEST(Rng, NormalFloatsSweepHasNoMismatchAndRunsTheLibmFallback) {
  // Over 2M draws at a dim-512 key's sigma, in calls of uneven length so
  // that spares straddle calls, every float must equal normal()'s. Some
  // libm values must land inside the guard band, so the fallback path
  // runs in every ctest.
  constexpr std::size_t kDraws = std::size_t{1} << 21;
  const double sigma = 1.0 / std::sqrt(512.0);
  const std::size_t chunks[] = {512, 257, 1, 4096, 3, 1023};
  Rng per_draw(2024);
  Rng batched(2024);
  std::vector<float> got;
  std::size_t drawn = 0;
  std::size_t mismatches = 0;
  std::size_t in_band = 0;
  for (std::size_t c = 0; drawn < kDraws; ++c) {
    got.assign(chunks[c % std::size(chunks)], 0.0f);
    batched.normal_floats(got, sigma);
    for (const float g : got) {
      const double want = per_draw.normal(0.0, sigma);
      in_band += in_guard_band(want) ? 1 : 0;
      mismatches += float_bits(g) != float_bits(static_cast<float>(want)) ? 1 : 0;
    }
    drawn += got.size();
  }
  EXPECT_EQ(mismatches, 0u) << "of " << drawn << " draws";
  EXPECT_GE(in_band, 10u) << "draws in the guard band, of " << drawn;
  EXPECT_EQ(batched.normal(), per_draw.normal());
}

/// Distance in ulps between two finite doubles of the same sign.
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  if ((ia < 0) != (ib < 0)) {
    return a == b ? 0 : ~std::uint64_t{0};  // +0 / -0, else a sign error
  }
  return ia > ib ? static_cast<std::uint64_t>(ia - ib) : static_cast<std::uint64_t>(ib - ia);
}

TEST(Rng, FastKernelsStayWithinTwoUlpOfLibm) {
  // normal_floats sends a draw back to libm only when it lies within 2^12
  // double ulps of a float rounding tie. That is safe only while the fast
  // log / sin / cos stay within a few ulps of libm everywhere Box-Muller
  // evaluates them: u1 in [2^-53, 1 - 2^-53], angle 2 pi u2 in [0, 2 pi),
  // including the multiples of pi/2 where sin or cos nears zero.
  constexpr std::uint64_t kMaxUlps = 2;
  std::uint64_t worst_log = 0;
  std::uint64_t worst_sin = 0;
  std::uint64_t worst_cos = 0;
  const auto check_log = [&](double u1) {
    worst_log = std::max(worst_log, ulp_distance(common::fdlibm_log(u1), std::log(u1)));
  };
  const auto check_angle = [&](double x) {
    double s = 0.0;
    double c = 0.0;
    common::fdlibm_sincos(x, s, c);
    worst_sin = std::max(worst_sin, ulp_distance(s, std::sin(x)));
    worst_cos = std::max(worst_cos, ulp_distance(c, std::cos(x)));
  };
  Rng rng(7);
  for (int i = 0; i < 1'000'000; ++i) {
    double u1 = 0.0;
    do {
      u1 = rng.uniform();
    } while (u1 <= 0.0);
    check_log(u1);
    check_angle(2.0 * std::numbers::pi * rng.uniform());
  }
  for (const double u1 : {0x1.0p-53, 1.0 - 0x1.0p-53, 0x1.0p-52, 1.0 - 0x1.0p-52, 0.5}) {
    check_log(u1);
  }
  // At and next to k * pi/2, k = 0..4, and the largest angle 2 pi (1 - 2^-53).
  for (int k = 0; k <= 4; ++k) {
    double x = k * (std::numbers::pi / 2.0);
    for (int step = 0; step < 32; ++step) {
      x = std::nextafter(x, 0.0);
    }
    for (int step = 0; step <= 64; ++step) {
      if (x >= 0.0 && x < 2.0 * std::numbers::pi) {
        check_angle(x);
      }
      x = std::nextafter(x, 8.0);
    }
  }
  check_angle(2.0 * std::numbers::pi * (1.0 - 0x1.0p-53));
  EXPECT_LE(worst_log, kMaxUlps);
  EXPECT_LE(worst_sin, kMaxUlps);
  EXPECT_LE(worst_cos, kMaxUlps);
}

TEST(Rng, PreconditionViolations) {
  Rng rng(59);
  EXPECT_THROW(rng.uniform_index(0), PreconditionError);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
  std::vector<float> out(4);
  EXPECT_THROW(rng.normal_floats(out, -1.0), PreconditionError);
  EXPECT_THROW(rng.bernoulli(1.5), PreconditionError);
}

}  // namespace
}  // namespace mandipass
