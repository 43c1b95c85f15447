#include "dsp/onset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace mandipass::dsp {
namespace {

/// Quiet noise followed by a strong oscillation from `start`.
std::vector<double> synthetic(std::size_t n, std::size_t start, double quiet_sigma,
                              double loud_amp, Rng& rng) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.normal(0.0, quiet_sigma);
    if (i >= start) {
      xs[i] += loud_amp * std::sin(0.9 * static_cast<double>(i));
    }
  }
  return xs;
}

TEST(Onset, DetectsAtWindowBoundary) {
  Rng rng(1);
  const auto xs = synthetic(300, 100, 20.0, 800.0, rng);
  const auto onset = detect_onset(xs);
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(*onset, 100u);  // start is window-aligned (stride 10)
}

TEST(Onset, QuantisedToStride) {
  Rng rng(2);
  const auto xs = synthetic(300, 104, 20.0, 800.0, rng);
  const auto onset = detect_onset(xs);
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(*onset % 10, 0u);
  EXPECT_GE(*onset, 90u);
  EXPECT_LE(*onset, 110u);
}

TEST(Onset, NoVibrationReturnsNullopt) {
  Rng rng(3);
  const auto xs = synthetic(300, 300, 20.0, 0.0, rng);  // never starts
  EXPECT_FALSE(detect_onset(xs).has_value());
}

TEST(Onset, IgnoresShortSpike) {
  Rng rng(4);
  std::vector<double> xs(300);
  for (auto& x : xs) {
    x = rng.normal(0.0, 10.0);
  }
  // One isolated glitch window (high std) that does not sustain.
  for (std::size_t i = 100; i < 110; ++i) {
    xs[i] += (i % 2 == 0 ? 2000.0 : -2000.0);
  }
  EXPECT_FALSE(detect_onset(xs).has_value());
}

TEST(Onset, SustainedVibrationAccepted) {
  Rng rng(5);
  const auto xs = synthetic(400, 200, 5.0, 500.0, rng);
  const auto onset = detect_onset(xs);
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(*onset, 200u);
}

TEST(Onset, EmptyInput) {
  EXPECT_FALSE(detect_onset(std::vector<double>{}).has_value());
}

TEST(Onset, ConfigValidation) {
  OnsetConfig bad;
  bad.window = 0;
  EXPECT_THROW(detect_onset(std::vector<double>(100, 0.0), bad), PreconditionError);
  OnsetConfig inverted;
  inverted.start_threshold = 50.0;
  inverted.sustain_threshold = 100.0;
  EXPECT_THROW(detect_onset(std::vector<double>(100, 0.0), inverted), PreconditionError);
}

TEST(Onset, AllFlatStreamHasNoOnset) {
  // A constant (earphone on a table) has zero std-dev in every window —
  // the no-onset path, and never an out-of-bounds window read. Nothing
  // non-finite or clipped explains the miss: it is plain quiet.
  const std::vector<double> flat(300, 1234.0);
  EXPECT_FALSE(detect_onset(flat).has_value());
  EXPECT_EQ(classify_onset_failure(flat), common::ErrorCode::OnsetNotFound);
}

TEST(Onset, AllSaturatedStreamOnsetAtStart) {
  // Rail-to-rail clipping (±32767 LSB alternating) keeps every window's
  // std-dev far above both thresholds: the onset is the first window.
  std::vector<double> sat(300);
  for (std::size_t i = 0; i < sat.size(); ++i) {
    sat[i] = i % 2 == 0 ? 32767.0 : -32767.0;
  }
  const auto onset = detect_onset(sat);
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(*onset, 0u);
}

TEST(Onset, OnsetInFinalWindowDetectedWithoutOverrun) {
  // Vibration starting in the very last window: the sustain check must
  // clamp at the end of the stream instead of reading past it. The short
  // remainder then fails segmentation, not detection
  // (PreprocessorTest.OnsetInFinalWindowThrowsShortSegment).
  Rng rng(8);
  const std::size_t n = 300;
  auto xs = synthetic(n, n, 5.0, 0.0, rng);  // quiet everywhere...
  for (std::size_t i = n - 10; i < n; ++i) { // ...except the final window
    xs[i] = (i % 2 == 0 ? 3000.0 : -3000.0);
  }
  const auto onset = detect_onset(xs);
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(*onset, n - 10);
}

TEST(Onset, StreamShorterThanOneWindow) {
  const std::vector<double> tiny(7, 500.0);
  EXPECT_FALSE(detect_onset(tiny).has_value());
}

}  // namespace
}  // namespace mandipass::dsp
