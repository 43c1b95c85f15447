#include "dsp/outlier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace mandipass::dsp {
namespace {

TEST(MadDetect, FlagsObviousOutlier) {
  std::vector<double> xs(50);
  Rng rng(1);
  for (auto& x : xs) {
    x = rng.normal(0.0, 1.0);
  }
  xs[20] = 100.0;
  const auto mask = detect_outliers_mad(xs);
  EXPECT_TRUE(mask[20]);
  int flagged = 0;
  for (bool f : mask) {
    flagged += f ? 1 : 0;
  }
  EXPECT_LE(flagged, 3);  // the glitch plus at most noise-tail flags
}

TEST(MadDetect, CleanDataMostlyUnflagged) {
  std::vector<double> xs(200);
  Rng rng(2);
  for (auto& x : xs) {
    x = rng.normal(0.0, 1.0);
  }
  const auto mask = detect_outliers_mad(xs);
  // 3-sigma rule on normal data: expect well under 5%.
  EXPECT_LT(std::count(mask.begin(), mask.end(), true), 10);
}

TEST(MadDetect, ConstantSegmentNoOutliers) {
  std::vector<double> xs(20, 4.0);
  const auto mask = detect_outliers_mad(xs);
  for (bool f : mask) {
    EXPECT_FALSE(f);
  }
}

TEST(MadDetect, MostlyConstantFlagsDeviants) {
  std::vector<double> xs(20, 4.0);
  xs[5] = 9.0;
  const auto mask = detect_outliers_mad(xs);  // MAD == 0 degenerate path
  EXPECT_TRUE(mask[5]);
  EXPECT_FALSE(mask[0]);
}

TEST(MadDetect, NegativeOutlierFlagged) {
  std::vector<double> xs(50);
  Rng rng(3);
  for (auto& x : xs) {
    x = rng.normal(10.0, 1.0);
  }
  xs[7] = -90.0;
  EXPECT_TRUE(detect_outliers_mad(xs)[7]);
}

TEST(MadDetect, EmptyInput) {
  EXPECT_TRUE(detect_outliers_mad(std::vector<double>{}).empty());
}

TEST(MadDetect, BadThresholdThrows) {
  MadConfig bad;
  bad.threshold = 0.0;
  EXPECT_THROW(detect_outliers_mad(std::vector<double>{1.0}, bad), PreconditionError);
}

TEST(Replace, UsesTwoPreviousAndTwoSubsequentNormals) {
  const std::vector<double> xs{1.0, 2.0, 100.0, 3.0, 4.0};
  const std::vector<bool> mask{false, false, true, false, false};
  const auto out = replace_outliers_with_neighbor_mean(xs, mask);
  EXPECT_DOUBLE_EQ(out[2], (1.0 + 2.0 + 3.0 + 4.0) / 4.0);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[4], 4.0);
}

TEST(Replace, SkipsFlaggedNeighbours) {
  const std::vector<double> xs{1.0, 50.0, 100.0, 3.0, 4.0};
  const std::vector<bool> mask{false, true, true, false, false};
  const auto out = replace_outliers_with_neighbor_mean(xs, mask);
  // For index 2: previous normals = {1.0} (only one), next = {3.0, 4.0}.
  EXPECT_DOUBLE_EQ(out[2], (1.0 + 3.0 + 4.0) / 3.0);
}

TEST(Replace, BorderOutlier) {
  const std::vector<double> xs{100.0, 2.0, 3.0};
  const std::vector<bool> mask{true, false, false};
  const auto out = replace_outliers_with_neighbor_mean(xs, mask);
  EXPECT_DOUBLE_EQ(out[0], 2.5);  // only subsequent normals exist
}

TEST(Replace, AllFlaggedUnchanged) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<bool> mask{true, true, true};
  const auto out = replace_outliers_with_neighbor_mean(xs, mask);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], xs[i]);
  }
}

TEST(Replace, MaskSizeMismatchThrows) {
  EXPECT_THROW(
      replace_outliers_with_neighbor_mean(std::vector<double>{1.0}, std::vector<bool>{}),
      PreconditionError);
}

TEST(MadClean, EndToEndRemovesGlitch) {
  std::vector<double> xs(60);
  Rng rng(4);
  for (auto& x : xs) {
    x = rng.normal(0.0, 1.0);
  }
  xs[30] = 500.0;
  const auto cleaned = mad_clean(xs);
  EXPECT_LT(std::abs(cleaned[30]), 5.0);
}

}  // namespace
}  // namespace mandipass::dsp
