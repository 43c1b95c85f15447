// Graceful degradation of the authentication pipeline under injected IMU
// faults (DESIGN.md §12): every degraded capture must come back from the
// typed APIs as a structured reject reason — never an exception — and
// every reject must be visible in the fault.reject.* obs counters.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/obs.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/preprocessor.h"
#include "imu/fault_injector.h"
#include "vibration/population.h"
#include "vibration/session.h"

namespace mandipass::core {
namespace {

class PipelineFaultTest : public ::testing::Test {
 protected:
  PipelineFaultTest() : rng_(7), pop_(2024) {}

  imu::RawRecording record_one() {
    vibration::SessionRecorder rec(pop_.sample(), rng_);
    return rec.record(vibration::SessionConfig{});
  }

  Rng rng_;
  vibration::PopulationGenerator pop_;
};

// The sweep at the heart of the robustness story: every fault kind at
// every severity either yields a usable signal array or a typed reject —
// try_process must be total over whatever the injector produces.
TEST_F(PipelineFaultTest, EveryFaultKindAndSeverityYieldsTypedOutcome) {
  const Preprocessor prep;
  const imu::FaultInjector injector(1234);
  const auto clean = record_one();
  for (const imu::FaultKind kind : imu::kAllFaultKinds) {
    for (const double severity : {0.1, 0.25, 0.5, 0.75, 1.0}) {
      const auto faulty = injector.apply(clean, {kind, severity});
      common::Result<SignalArray> result = prep.try_process(faulty);
      if (!result.ok()) {
        EXPECT_FALSE(result.error().message.empty())
            << imu::fault_kind_name(kind) << " @ " << severity;
        // The reason must come from the documented taxonomy for this path.
        const auto code = result.code();
        EXPECT_TRUE(code == common::ErrorCode::InvalidInput ||
                    code == common::ErrorCode::SegmentTooShort ||
                    code == common::ErrorCode::OnsetNotFound ||
                    code == common::ErrorCode::SensorSaturated ||
                    code == common::ErrorCode::NonFiniteSample)
            << imu::fault_kind_name(kind) << " @ " << severity << " gave "
            << common::error_code_name(code);
      }
    }
  }
}

TEST_F(PipelineFaultTest, NaNBurstInsideSegmentIsTypedNonFiniteReject) {
  const Preprocessor prep;
  auto rec = record_one();
  const auto onset = prep.detect_onset(rec);
  ASSERT_TRUE(onset.has_value());
  // Poison samples across the whole vibration segment on one axis, so the
  // segment the pipeline picks covers at least one of them no matter how
  // the NaNs shift the detected onset.
  for (std::size_t k = 0; k < kDefaultSegmentLength && *onset + k < rec.sample_count(); k += 3) {
    rec.axes[0][*onset + k] = std::numeric_limits<double>::quiet_NaN();
  }
  const auto result = prep.try_process(rec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), common::ErrorCode::NonFiniteSample);
}

TEST_F(PipelineFaultTest, AllNaNRecordingIsTypedNonFiniteReject) {
  const Preprocessor prep;
  auto rec = record_one();
  for (auto& axis : rec.axes) {
    for (double& v : axis) {
      v = std::numeric_limits<double>::quiet_NaN();
    }
  }
  const auto result = prep.try_process(rec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), common::ErrorCode::NonFiniteSample);
}

TEST_F(PipelineFaultTest, PinnedRecordingIsTypedSaturationReject) {
  const Preprocessor prep;
  auto rec = record_one();
  for (auto& axis : rec.axes) {
    for (double& v : axis) {
      v = 32767.0;  // every axis pinned at full scale: no onset, all clipped
    }
  }
  const auto result = prep.try_process(rec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), common::ErrorCode::SensorSaturated);
}

TEST_F(PipelineFaultTest, QuietRecordingIsTypedOnsetReject) {
  const Preprocessor prep;
  imu::RawRecording rec;
  rec.sample_rate_hz = 350.0;
  for (auto& axis : rec.axes) {
    axis.assign(256, 100.0);  // flat gravity offset, no vibration
  }
  const auto result = prep.try_process(rec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), common::ErrorCode::OnsetNotFound);
}

TEST_F(PipelineFaultTest, StructuralFaultsAreTypedInvalidInput) {
  const Preprocessor prep;
  auto ragged = record_one();
  ragged.axes[3].pop_back();
  EXPECT_EQ(prep.try_process(ragged).code(), common::ErrorCode::InvalidInput);

  auto bad_rate = record_one();
  bad_rate.sample_rate_hz = 0.0;
  EXPECT_EQ(prep.try_process(bad_rate).code(), common::ErrorCode::InvalidInput);

  auto short_rec = record_one();
  for (auto& axis : short_rec.axes) {
    axis.resize(10);
  }
  EXPECT_EQ(prep.try_process(short_rec).code(), common::ErrorCode::SegmentTooShort);
}

TEST_F(PipelineFaultTest, RejectsIncrementTheirTaxonomyCounter) {
  const Preprocessor prep;
  auto rec = record_one();
  rec.axes[2][0] = std::numeric_limits<double>::quiet_NaN();
  const auto onset = prep.detect_onset(rec);
  ASSERT_TRUE(onset.has_value());
  rec.axes[2][*onset + 3] = std::numeric_limits<double>::quiet_NaN();

  const auto counter_name = common::reject_counter_name(common::ErrorCode::NonFiniteSample);
  const std::uint64_t before = common::obs::counter(counter_name).value();
  const auto result = prep.try_process(rec);
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.code(), common::ErrorCode::NonFiniteSample);
  EXPECT_EQ(common::obs::counter(counter_name).value(), before + 1);
}

TEST_F(PipelineFaultTest, CleanCaptureIncrementsNoRejectCounter) {
  const Preprocessor prep;
  const auto rec = record_one();
  std::uint64_t before = 0;
  using common::ErrorCode;
  const ErrorCode all_codes[] = {
      ErrorCode::InvalidInput,   ErrorCode::SegmentTooShort,  ErrorCode::OnsetNotFound,
      ErrorCode::SensorSaturated, ErrorCode::NonFiniteSample, ErrorCode::UnknownUser,
      ErrorCode::DimensionMismatch, ErrorCode::IoError, ErrorCode::NoSpace,
      ErrorCode::CorruptData,
  };
  for (const auto code : all_codes) {
    before += common::obs::counter(common::reject_counter_name(code)).value();
  }
  ASSERT_TRUE(prep.try_process(rec).ok());
  std::uint64_t after = 0;
  for (const auto code : all_codes) {
    after += common::obs::counter(common::reject_counter_name(code)).value();
  }
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace mandipass::core
