#include "core/quantized_extractor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "auth/cosine.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "nn/quantize.h"
#include "nn/quantize_reference.h"

namespace mandipass::core {
namespace {

ExtractorConfig tiny_config() {
  ExtractorConfig cfg;
  cfg.embedding_dim = 16;
  cfg.channels = {4, 6, 8};
  return cfg;
}

GradientArray random_gradient_array(std::uint64_t seed) {
  Rng rng(seed);
  GradientArray g;
  for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
    g.positive[a].resize(30);
    g.negative[a].resize(30);
    for (std::size_t i = 0; i < 30; ++i) {
      g.positive[a][i] = rng.uniform(0.0, 0.5);
      g.negative[a][i] = rng.uniform(-0.5, 0.0);
    }
  }
  return g;
}

/// Trains briefly so BatchNorm's running statistics are non-trivial —
/// the quantiser folds them, so an untrained model would under-test it.
void warm_up(BiometricExtractor& ex) {
  LabeledGradientSet data;
  for (int c = 0; c < 2; ++c) {
    for (int s = 0; s < 16; ++s) {
      data.arrays.push_back(random_gradient_array(1000 + c * 100 + s));
      data.labels.push_back(c);
    }
  }
  ExtractorTrainer trainer(ex, {.epochs = 2});
  trainer.train(data);
}

TEST(QuantizeRows, RoundTripErrorBounded) {
  Rng rng(1);
  nn::Tensor w({8, 20});
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(rng.normal(0.0, 0.3));
  }
  const auto q = nn::quantize_rows(w);
  // Per-row symmetric int8: error <= scale/2 = max|row| / 254.
  double max_scale = 0.0;
  for (float s : q.scales) {
    max_scale = std::max(max_scale, static_cast<double>(s));
  }
  EXPECT_LE(nn::quantization_error(w, q), max_scale * 0.5 + 1e-7);
}

TEST(QuantizeRows, ZeroRowHandled) {
  nn::Tensor w({2, 4});
  w.at2(1, 2) = 1.0f;
  const auto q = nn::quantize_rows(w);
  EXPECT_EQ(q.scales[0], 0.0f);
  EXPECT_EQ(nn::dequantize(q).at2(0, 0), 0.0f);
  EXPECT_NEAR(nn::dequantize(q).at2(1, 2), 1.0f, 1e-6);
}

TEST(QuantizedMatvec, MatchesFloatReference) {
  Rng rng(2);
  nn::Tensor w({5, 12});
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  const auto q = nn::quantize_rows(w);
  std::vector<float> x(12);
  std::vector<float> bias(5);
  for (auto& v : x) {
    v = static_cast<float>(rng.normal());
  }
  for (auto& v : bias) {
    v = static_cast<float>(rng.normal());
  }
  std::vector<float> y(5);
  nn::quantized_matvec(q, x.data(), bias.data(), y.data());
  for (std::size_t r = 0; r < 5; ++r) {
    float ref = bias[r];
    for (std::size_t c = 0; c < 12; ++c) {
      ref += w.at2(r, c) * x[c];
    }
    EXPECT_NEAR(y[r], ref, 0.05f);
  }
}

TEST(QuantizedExtractor, EmbeddingsTrackFloatModel) {
  BiometricExtractor ex(tiny_config());
  warm_up(ex);
  const QuantizedExtractor qex(ex);
  for (int t = 0; t < 5; ++t) {
    const auto g = random_gradient_array(50 + t);
    const auto f_print = ex.extract(g);
    const auto q_print = qex.extract(g);
    ASSERT_EQ(q_print.size(), f_print.size());
    EXPECT_GT(auth::cosine_similarity(f_print, q_print), 0.995);
  }
}

TEST(QuantizedExtractor, StorageRoughlyQuartersFloatModel) {
  BiometricExtractor ex(tiny_config());
  const QuantizedExtractor qex(ex);
  EXPECT_LT(qex.storage_bytes(), ex.storage_bytes() / 3);
  EXPECT_GT(qex.storage_bytes(), ex.storage_bytes() / 6);
}

TEST(QuantizedExtractor, EmbeddingInSigmoidRange) {
  BiometricExtractor ex(tiny_config());
  warm_up(ex);
  const QuantizedExtractor qex(ex);
  for (float v : qex.extract(random_gradient_array(60))) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(QuantizedExtractor, Deterministic) {
  BiometricExtractor ex(tiny_config());
  warm_up(ex);
  const QuantizedExtractor qex(ex);
  const auto g = random_gradient_array(70);
  EXPECT_EQ(qex.extract(g), qex.extract(g));
}

TEST(QuantizedExtractor, WrongHalfLengthThrows) {
  BiometricExtractor ex(tiny_config());
  const QuantizedExtractor qex(ex);
  GradientArray bad;
  for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
    bad.positive[a].resize(10);
    bad.negative[a].resize(10);
  }
  EXPECT_THROW(qex.extract(bad), PreconditionError);
}

TEST(QuantizedExtractor, ShortAxisThrowsAtEveryEntryPoint) {
  // half_length() reads axis 0 only: a shorter later axis must be
  // rejected by every float and int8 entry point, not read past its end.
  BiometricExtractor ex(tiny_config());
  const QuantizedExtractor qex(ex);
  for (const bool negative : {false, true}) {
    GradientArray bad = random_gradient_array(80);
    (negative ? bad.negative : bad.positive)[imu::kAxisCount - 1].resize(10);
    const std::vector<GradientArray> batch = {random_gradient_array(81), bad};
    EXPECT_THROW(ex.extract(bad), PreconditionError);
    EXPECT_THROW(ex.extract_batch(batch), PreconditionError);
    EXPECT_THROW(qex.extract(bad), PreconditionError);
    EXPECT_THROW(qex.extract_batch(batch), PreconditionError);
    EXPECT_THROW(qex.extract_scalar(bad), PreconditionError);
    EXPECT_THROW(pack_branches(batch, ex.config().axes), PreconditionError);
  }
  // Axes past the configured K are never read, so they may be short.
  ExtractorConfig k3 = tiny_config();
  k3.axes = 3;
  BiometricExtractor ex3(k3);
  GradientArray partial = random_gradient_array(82);
  partial.positive[imu::kAxisCount - 1].clear();
  EXPECT_EQ(ex3.extract(partial).size(), k3.embedding_dim);
  EXPECT_EQ(QuantizedExtractor(ex3).extract(partial).size(), k3.embedding_dim);
}

}  // namespace
}  // namespace mandipass::core
