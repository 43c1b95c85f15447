#include "core/mandipass.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "auth/gaussian_matrix.h"
#include "common/error.h"

namespace mandipass::core {
namespace {

/// Fixture with an UNTRAINED tiny extractor: enough for API-level tests
/// (genuine accept/impostor reject quality is covered by the integration
/// suite with a trained model).
class MandiPassTest : public ::testing::Test {
 protected:
  MandiPassTest() : rng_(11), pop_(2024) {
    ExtractorConfig cfg;
    cfg.embedding_dim = 32;
    cfg.channels = {4, 6, 8};
    extractor_ = std::make_shared<BiometricExtractor>(cfg);
  }

  imu::RawRecording record(const vibration::PersonProfile& person) {
    vibration::SessionRecorder rec(person, rng_);
    return rec.record(vibration::SessionConfig{});
  }

  Rng rng_;
  vibration::PopulationGenerator pop_;
  std::shared_ptr<BiometricExtractor> extractor_;
};

TEST_F(MandiPassTest, EnrollStoresTemplate) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  mp.enroll("alice", record(person));
  EXPECT_EQ(mp.store().size(), 1u);
  EXPECT_TRUE(mp.store().lookup("alice").has_value());
}

TEST_F(MandiPassTest, VerifyUnknownUserIsNullopt) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  EXPECT_FALSE(mp.verify("ghost", record(person)).has_value());
}

TEST_F(MandiPassTest, VerifyKnownUserReturnsDecision) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  mp.enroll("alice", record(person));
  const auto d = mp.verify("alice", record(person));
  ASSERT_TRUE(d.has_value());
  EXPECT_GE(d->distance, 0.0);
  EXPECT_LE(d->distance, 2.0);
}

// The facade's typed path refuses a template of another dimension (a
// throw would fail the test); the legacy wrapper raises it. An unknown
// user stays UnknownUser / nullopt.
TEST_F(MandiPassTest, TryVerifyRejectsTypedAndVerifyRaises) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  const auto rec = record(person);
  const std::vector<float> other_dim_print(16, 0.5f);  // the extractor emits 32
  auth::StoredTemplate tmpl;
  tmpl.data = auth::GaussianMatrix(5, other_dim_print.size()).transform(other_dim_print);
  tmpl.matrix_seed = 5;
  mp.store().enroll("alice", tmpl);

  const auto mismatch = mp.try_verify("alice", rec);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), common::ErrorCode::DimensionMismatch);
  EXPECT_THROW(mp.verify("alice", rec), SignalError);

  const auto unknown = mp.try_verify("ghost", rec);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), common::ErrorCode::UnknownUser);
  EXPECT_FALSE(mp.verify("ghost", rec).has_value());
}

TEST_F(MandiPassTest, RekeyChangesMatrixSeedAndBumpsVersion) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  mp.enroll("alice", record(person));
  const auto before = mp.store().lookup("alice");
  mp.rekey("alice", record(person));
  const auto after = mp.store().lookup("alice");
  ASSERT_TRUE(before.has_value() && after.has_value());
  EXPECT_NE(before->matrix_seed, after->matrix_seed);
  EXPECT_EQ(after->key_version, before->key_version + 1);
  EXPECT_NE(before->data, after->data);
}

TEST_F(MandiPassTest, RekeyUnknownUserThrows) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  EXPECT_THROW(mp.rekey("ghost", record(person)), PreconditionError);
}

TEST_F(MandiPassTest, RevokeRemovesUser) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  mp.enroll("alice", record(person));
  EXPECT_TRUE(mp.revoke("alice"));
  EXPECT_FALSE(mp.verify("alice", record(person)).has_value());
}

TEST_F(MandiPassTest, ExtractPrintHasEmbeddingDim) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  const auto print = mp.extract_print(record(person));
  EXPECT_EQ(print.size(), 32u);
}

TEST_F(MandiPassTest, SilentRecordingThrowsSignalError) {
  MandiPass mp(extractor_);
  imu::RawRecording silent;
  silent.sample_rate_hz = 350.0;
  for (auto& axis : silent.axes) {
    axis.assign(300, 0.0);
  }
  EXPECT_THROW(mp.enroll("alice", silent), SignalError);
}

TEST_F(MandiPassTest, ThresholdAdjustable) {
  MandiPass mp(extractor_);
  mp.set_threshold(0.1);
  EXPECT_DOUBLE_EQ(mp.verifier().threshold(), 0.1);
}

TEST_F(MandiPassTest, NullExtractorThrows) {
  EXPECT_THROW(MandiPass(nullptr), PreconditionError);
}

TEST_F(MandiPassTest, TemplatesOfSameUserDifferAcrossEnrollments) {
  // Fresh Gaussian matrix per enrollment: even identical prints seal to
  // different cancelable templates.
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  const auto rec = record(person);
  mp.enroll("a", rec);
  mp.enroll("b", rec);
  EXPECT_NE(mp.store().lookup("a")->data, mp.store().lookup("b")->data);
}

}  // namespace
}  // namespace mandipass::core
