#include "core/preprocessor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "vibration/population.h"
#include "vibration/session.h"

namespace mandipass::core {
namespace {

class PreprocessorTest : public ::testing::Test {
 protected:
  PreprocessorTest() : rng_(7), pop_(2024) {}

  imu::RawRecording record_one() {
    vibration::SessionRecorder rec(pop_.sample(), rng_);
    return rec.record(vibration::SessionConfig{});
  }

  Rng rng_;
  vibration::PopulationGenerator pop_;
};

TEST_F(PreprocessorTest, ProducesSixNormalisedSegments) {
  const Preprocessor prep;
  const auto rec = record_one();
  const SignalArray array = prep.process(rec);
  for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
    ASSERT_EQ(array.axes[a].size(), kDefaultSegmentLength);
    const double lo = min_value(array.axes[a]);
    const double hi = max_value(array.axes[a]);
    EXPECT_GE(lo, 0.0);
    EXPECT_LE(hi, 1.0);
  }
}

TEST_F(PreprocessorTest, MinMaxHitsBothEnds) {
  const Preprocessor prep;
  const SignalArray array = prep.process(record_one());
  for (std::size_t a = 0; a < 3; ++a) {  // accel axes carry real signal
    EXPECT_NEAR(min_value(array.axes[a]), 0.0, 1e-12);
    EXPECT_NEAR(max_value(array.axes[a]), 1.0, 1e-12);
  }
}

TEST_F(PreprocessorTest, OnsetDetectedInsideVoicedRegion) {
  const Preprocessor prep;
  const auto rec = record_one();
  const auto onset = prep.detect_onset(rec);
  ASSERT_TRUE(onset.has_value());
  // Voicing starts at 0.30 s = sample 105 (window-quantised).
  EXPECT_GE(*onset, 90u);
  EXPECT_LE(*onset, 130u);
}

TEST_F(PreprocessorTest, SilenceOnlyRecordingThrows) {
  const Preprocessor prep;
  vibration::SessionRecorder rec(pop_.sample(), rng_);
  vibration::SessionConfig cfg;
  auto recording = rec.record(cfg);
  // Chop the recording before the voicing begins.
  for (auto& axis : recording.axes) {
    axis.resize(90);
  }
  EXPECT_THROW(prep.process(recording), SignalError);
}

TEST_F(PreprocessorTest, OnsetTooLateThrows) {
  const Preprocessor prep;
  auto recording = record_one();
  const auto onset = prep.detect_onset(recording);
  ASSERT_TRUE(onset.has_value());
  // Keep only a handful of samples past the onset — not enough for n = 60.
  for (auto& axis : recording.axes) {
    axis.resize(*onset + 20);
  }
  EXPECT_THROW(prep.process(recording), SignalError);
}

TEST_F(PreprocessorTest, ShortRecordingThrows) {
  const Preprocessor prep;
  imu::RawRecording tiny;
  tiny.sample_rate_hz = 350.0;
  for (auto& axis : tiny.axes) {
    axis.resize(10, 0.0);
  }
  EXPECT_THROW(prep.process(tiny), SignalError);
}

TEST_F(PreprocessorTest, AllFlatRecordingThrowsNoOnset) {
  // Every axis constant (device on a table): no window crosses the onset
  // threshold, so process() must take the no-onset path, not crash.
  const Preprocessor prep;
  imu::RawRecording flat;
  flat.sample_rate_hz = 350.0;
  for (auto& axis : flat.axes) {
    axis.assign(300, 1234.0);
  }
  EXPECT_THROW(prep.process(flat), SignalError);
}

TEST_F(PreprocessorTest, AllSaturatedRecordingProcesses) {
  // Rail-to-rail clipping on every axis: the onset lands in window 0 and
  // the full pipeline still produces normalised segments (no OOB reads,
  // no division by zero in normalisation).
  const Preprocessor prep;
  imu::RawRecording sat;
  sat.sample_rate_hz = 350.0;
  for (auto& axis : sat.axes) {
    axis.resize(300);
    for (std::size_t i = 0; i < axis.size(); ++i) {
      axis[i] = i % 2 == 0 ? 32767.0 : -32767.0;
    }
  }
  const SignalArray array = prep.process(sat);
  for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
    ASSERT_EQ(array.axes[a].size(), kDefaultSegmentLength);
    EXPECT_GE(min_value(array.axes[a]), 0.0);
    EXPECT_LE(max_value(array.axes[a]), 1.0);
  }
}

TEST_F(PreprocessorTest, OnsetInFinalWindowThrowsShortSegment) {
  // Vibration confined to the last 10 samples: detection succeeds but a
  // 60-sample segment cannot fit — the short-segment SignalError path,
  // with no reads past the end of any axis.
  PreprocessorConfig cfg;
  cfg.peak_align_radius = 0;
  const Preprocessor prep(cfg);
  imu::RawRecording rec;
  rec.sample_rate_hz = 350.0;
  for (auto& axis : rec.axes) {
    axis.assign(300, 0.0);
    for (std::size_t i = 290; i < 300; ++i) {
      axis[i] = i % 2 == 0 ? 3000.0 : -3000.0;
    }
  }
  const auto onset = prep.detect_onset(rec);
  ASSERT_TRUE(onset.has_value());
  EXPECT_EQ(*onset, 290u);
  EXPECT_THROW(prep.process(rec), SignalError);
  EXPECT_EQ(prep.try_process(rec).code(), common::ErrorCode::SegmentTooShort);
}

TEST_F(PreprocessorTest, HighPassRemovesDcOffset) {
  // Gravity puts a large DC on the raw axes; after preprocessing the
  // segment is normalised, but the *shape* must not be a flat line pinned
  // by the DC (std of the normalised segment is substantial).
  const Preprocessor prep;
  const SignalArray array = prep.process(record_one());
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_GT(stddev(array.axes[a]), 0.1);
  }
}

TEST_F(PreprocessorTest, GlitchDoesNotDominateSegment) {
  // Inject a massive outlier right after the onset; MAD replacement must
  // keep it from crushing the rest of the normalised segment to ~0.
  const Preprocessor prep;
  auto recording = record_one();
  const auto onset = prep.detect_onset(recording);
  ASSERT_TRUE(onset.has_value());
  recording.axes[0][*onset + 10] = 32767.0;
  const SignalArray array = prep.process(recording);
  // Without outlier handling, one sample would be 1.0 and the rest near a
  // constant; with it, the segment keeps healthy variance.
  EXPECT_GT(stddev(array.axes[0]), 0.1);
}

TEST_F(PreprocessorTest, PeakAlignmentStaysNearCoarseOnset) {
  PreprocessorConfig cfg;
  cfg.peak_align_radius = 12;
  const Preprocessor prep(cfg);
  const auto rec = record_one();
  EXPECT_NO_THROW(prep.process(rec));
}

TEST_F(PreprocessorTest, CustomSegmentLength) {
  PreprocessorConfig cfg;
  cfg.segment_length = 40;
  const Preprocessor prep(cfg);
  const SignalArray array = prep.process(record_one());
  EXPECT_EQ(array.segment_length(), 40u);
}

TEST_F(PreprocessorTest, InvalidConfigThrows) {
  PreprocessorConfig bad;
  bad.segment_length = 2;
  EXPECT_THROW(Preprocessor{bad}, PreconditionError);
  PreprocessorConfig bad2;
  bad2.highpass_hz = 0.0;
  EXPECT_THROW(Preprocessor{bad2}, PreconditionError);
}

}  // namespace
}  // namespace mandipass::core
