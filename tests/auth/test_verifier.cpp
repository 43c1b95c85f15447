#include "auth/verifier.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace mandipass::auth {
namespace {

std::vector<float> random_print(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return v;
}

TEST(Verifier, AcceptsIdentical) {
  const Verifier v(0.5);
  const auto p = random_print(32, 1);
  const auto d = v.verify(p, p);
  EXPECT_TRUE(d.accepted);
  EXPECT_NEAR(d.distance, 0.0, 1e-9);
}

TEST(Verifier, RejectsOrthogonal) {
  const Verifier v(0.5);
  std::vector<float> a{1.0f, 0.0f};
  std::vector<float> b{0.0f, 1.0f};
  const auto d = v.verify(a, b);
  EXPECT_FALSE(d.accepted);
  EXPECT_NEAR(d.distance, 1.0, 1e-9);
}

TEST(Verifier, ThresholdBoundaryAccepts) {
  const Verifier v(1.0);
  std::vector<float> a{1.0f, 0.0f};
  std::vector<float> b{0.0f, 1.0f};
  EXPECT_TRUE(v.verify(a, b).accepted);  // accept iff distance <= threshold
}

TEST(Verifier, DefaultIsPaperThreshold) {
  const Verifier v;
  EXPECT_DOUBLE_EQ(v.threshold(), kPaperThreshold);
}

TEST(Verifier, SetThresholdValidated) {
  Verifier v;
  v.set_threshold(0.3);
  EXPECT_DOUBLE_EQ(v.threshold(), 0.3);
  EXPECT_THROW(v.set_threshold(-0.1), PreconditionError);
  EXPECT_THROW(v.set_threshold(2.5), PreconditionError);
  EXPECT_THROW(Verifier(3.0), PreconditionError);
}

}  // namespace
}  // namespace mandipass::auth
