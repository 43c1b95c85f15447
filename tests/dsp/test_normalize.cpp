#include "dsp/normalize.h"

#include <gtest/gtest.h>

#include "common/stats.h"

namespace mandipass::dsp {
namespace {

TEST(MinMax, MapsToUnitInterval) {
  const std::vector<double> xs{-5.0, 0.0, 5.0};
  const auto out = minmax_normalize(xs);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
  EXPECT_DOUBLE_EQ(out[2], 1.0);
}

TEST(MinMax, ConstantMapsToZeros) {
  const std::vector<double> xs{3.0, 3.0, 3.0};
  for (double v : minmax_normalize(xs)) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(MinMax, EmptyStaysEmpty) {
  EXPECT_TRUE(minmax_normalize(std::vector<double>{}).empty());
}

TEST(MinMax, ScaleInvariantShape) {
  const std::vector<double> xs{1.0, 4.0, 2.0};
  std::vector<double> scaled{10.0, 40.0, 20.0};
  const auto a = minmax_normalize(xs);
  const auto b = minmax_normalize(scaled);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
}

TEST(MinMax, ShiftInvariantShape) {
  const std::vector<double> xs{1.0, 4.0, 2.0};
  std::vector<double> shifted{101.0, 104.0, 102.0};
  const auto a = minmax_normalize(xs);
  const auto b = minmax_normalize(shifted);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
}

}  // namespace
}  // namespace mandipass::dsp
