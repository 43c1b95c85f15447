// Fused-vs-reference equivalence suite for the compiled inference plan
// (DESIGN.md §13). The contract under test:
//
//   * extract/extract_batch (compiled: BN folded into conv, ReLU/Sigmoid
//     fused as GEMM epilogues, packed register-blocked kernel) match the
//     layer-by-layer reference embed() to ≤ 1e-5 max-abs per embedding
//     element, for batch sizes 1/7/128, thread counts 1/2/8, with and
//     without an attached head, on a *trained* model (nontrivial BN
//     running statistics, so the folding math is genuinely exercised);
//   * the compiled output is bit-identical across thread counts and
//     between the single-sample and batched entry points;
//   * accept/reject decisions through the cancelable-transform + Verifier
//     pipeline are identical between the two paths;
//   * the plan is invalidated (recompiled) after training and load();
//   * nn::fold_branch accepts only [Conv2d, BatchNorm2d, ReLU] triples +
//     optional Flatten, and folds each BatchNorm with its own eps at any
//     conv geometry (hand-built branches, not just the paper's).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "auth/gaussian_matrix.h"
#include "auth/verifier.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/extractor.h"
#include "core/trainer.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/inference_plan.h"
#include "nn/layers.h"
#include "nn/sequential.h"

namespace mandipass::core {
namespace {

constexpr float kEmbedTol = 1e-5f;  // the documented fused-vs-reference bound

GradientArray random_gradient_array(Rng& rng, std::size_t half) {
  GradientArray g;
  for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
    g.positive[a].resize(half);
    g.negative[a].resize(half);
    for (std::size_t i = 0; i < half; ++i) {
      g.positive[a][i] = rng.uniform(0.0, 0.5);
      g.negative[a][i] = rng.uniform(-0.5, 0.0);
    }
  }
  return g;
}

std::vector<GradientArray> random_batch(std::size_t count, std::size_t half,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<GradientArray> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(random_gradient_array(rng, half));
  }
  return out;
}

/// The layer-by-layer reference: pack + eval-mode embed(), exactly the
/// pre-plan extract_batch pipeline.
std::vector<std::vector<float>> reference_extract_batch(
    BiometricExtractor& ex, const std::vector<GradientArray>& arrays) {
  std::vector<std::vector<float>> out;
  out.reserve(arrays.size());
  constexpr std::size_t kChunk = 128;
  for (std::size_t start = 0; start < arrays.size(); start += kChunk) {
    const std::size_t bs = std::min(kChunk, arrays.size() - start);
    const BranchTensors input = pack_branches(
        std::span<const GradientArray>(arrays).subspan(start, bs), ex.config().axes);
    const nn::Tensor e = ex.embed(input, /*train=*/false);
    for (std::size_t b = 0; b < bs; ++b) {
      std::vector<float> row(e.dim(1));
      for (std::size_t j = 0; j < row.size(); ++j) {
        row[j] = e.at2(b, j);
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

float max_abs_delta(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].size(), b[i].size());
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      worst = std::max(worst, std::abs(a[i][j] - b[i][j]));
    }
  }
  return worst;
}

bool bitwise_equal(const std::vector<std::vector<float>>& a,
                   const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

ExtractorConfig small_config() {
  ExtractorConfig cfg;
  cfg.half_length = 30;
  cfg.embedding_dim = 32;
  cfg.channels = {4, 6, 8};
  return cfg;
}

/// Trains briefly so BN running statistics, gamma/beta and the conv
/// weights all move off their init values — a fresh model would fold
/// near-identity BN and prove very little.
void train_briefly(BiometricExtractor& ex, std::uint64_t seed) {
  LabeledGradientSet data;
  Rng rng(seed);
  for (std::uint32_t person = 0; person < 4; ++person) {
    for (std::size_t s = 0; s < 12; ++s) {
      data.arrays.push_back(random_gradient_array(rng, ex.config().half_length));
      data.labels.push_back(person);
    }
  }
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  ExtractorTrainer trainer(ex, tc);
  trainer.train(data);
}

class InferencePlanEquivalence : public ::testing::Test {
 protected:
  void TearDown() override { common::ThreadPool::set_global_threads(1); }
};

TEST_F(InferencePlanEquivalence, MatchesReferenceAcrossBatchSizesAndThreads) {
  BiometricExtractor ex(small_config());
  train_briefly(ex, 21);
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7}, std::size_t{128}}) {
    const auto batch = random_batch(batch_size, ex.config().half_length, 100 + batch_size);
    common::ThreadPool::set_global_threads(1);
    const auto reference = reference_extract_batch(ex, batch);
    const auto compiled_serial = ex.extract_batch(batch);
    EXPECT_LE(max_abs_delta(reference, compiled_serial), kEmbedTol)
        << "batch " << batch_size << " (serial)";
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      common::ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(bitwise_equal(compiled_serial, ex.extract_batch(batch)))
          << "batch " << batch_size << ", " << threads << " threads";
    }
  }
}

TEST_F(InferencePlanEquivalence, SingleSampleMatchesBatchedBitExactly) {
  BiometricExtractor ex(small_config());
  train_briefly(ex, 22);
  const auto batch = random_batch(7, ex.config().half_length, 77);
  common::ThreadPool::set_global_threads(8);
  const auto batched = ex.extract_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto single = ex.extract(batch[i]);
    ASSERT_EQ(single.size(), batched[i].size());
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(single[j], batched[i][j]) << "sample " << i << " dim " << j;
    }
  }
}

TEST_F(InferencePlanEquivalence, HeadlessModelMatchesReference) {
  // The plan covers branches + trunk only; a never-trained, headless
  // model (identity-ish BN) must still fold correctly.
  BiometricExtractor ex(small_config());
  ASSERT_FALSE(ex.has_head());
  const auto batch = random_batch(7, ex.config().half_length, 31);
  const auto reference = reference_extract_batch(ex, batch);
  EXPECT_LE(max_abs_delta(reference, ex.extract_batch(batch)), kEmbedTol);
}

TEST_F(InferencePlanEquivalence, AttachingAHeadDoesNotPerturbEmbeddings) {
  // The head projects *after* the MandiblePrint; attaching one must not
  // change what extract produces or disturb the compiled plan.
  BiometricExtractor ex(small_config());
  const auto batch = random_batch(5, ex.config().half_length, 41);
  const auto before = ex.extract_batch(batch);
  ex.attach_head(4);
  EXPECT_TRUE(bitwise_equal(before, ex.extract_batch(batch)));
}

TEST_F(InferencePlanEquivalence, DecisionsMatchReferencePath) {
  BiometricExtractor ex(small_config());
  train_briefly(ex, 24);
  const auto genuine = random_batch(8, ex.config().half_length, 51);
  const auto probes = random_batch(8, ex.config().half_length, 52);

  const auto ref_templates = reference_extract_batch(ex, genuine);
  const auto ref_probes = reference_extract_batch(ex, probes);
  const auto fused_templates = ex.extract_batch(genuine);
  const auto fused_probes = ex.extract_batch(probes);

  const auth::GaussianMatrix g(0xA11CE, ex.config().embedding_dim);
  // Sweep thresholds across the whole distance range: the fused path must
  // reproduce the reference decision at every operating point (bar a
  // knife-edge tie, which the ≤1e-5 embedding bound makes measure-zero
  // for these random probes).
  for (const double threshold : {0.05, 0.15, 0.30, 0.50, 0.70}) {
    const auth::Verifier v(threshold);
    for (std::size_t i = 0; i < ref_templates.size(); ++i) {
      for (std::size_t j = 0; j < ref_probes.size(); ++j) {
        const auto ref_t = g.transform(ref_templates[i]);
        const auto ref_p = g.transform(ref_probes[j]);
        const auto fus_t = g.transform(fused_templates[i]);
        const auto fus_p = g.transform(fused_probes[j]);
        const auto ref_d = v.verify(ref_p, ref_t);
        const auto fus_d = v.verify(fus_p, fus_t);
        EXPECT_EQ(ref_d.accepted, fus_d.accepted)
            << "threshold " << threshold << " pair (" << i << "," << j << "), distances "
            << ref_d.distance << " vs " << fus_d.distance;
        EXPECT_NEAR(ref_d.distance, fus_d.distance, 1e-4);
      }
    }
  }
}

TEST_F(InferencePlanEquivalence, PlanIsInvalidatedByTraining) {
  BiometricExtractor ex(small_config());
  const auto batch = random_batch(3, ex.config().half_length, 61);
  const auto before = ex.extract_batch(batch);  // compiles the initial plan
  train_briefly(ex, 25);
  const auto after = ex.extract_batch(batch);
  EXPECT_FALSE(bitwise_equal(before, after)) << "plan survived training";
  EXPECT_LE(max_abs_delta(reference_extract_batch(ex, batch), after), kEmbedTol);
}

TEST_F(InferencePlanEquivalence, PlanIsInvalidatedByLoad) {
  BiometricExtractor trained(small_config());
  train_briefly(trained, 26);
  BiometricExtractor loaded(small_config());
  const auto batch = random_batch(3, trained.config().half_length, 71);
  (void)loaded.extract_batch(batch);  // compile a plan for the *old* weights
  std::stringstream ss;
  trained.save(ss);
  loaded.load(ss);
  EXPECT_TRUE(bitwise_equal(trained.extract_batch(batch), loaded.extract_batch(batch)));
}

TEST(FoldBranch, RejectsAnyLayoutButChainedReluTriplesAndOptionalFlatten) {
  Rng rng(3);
  const auto conv = [&](std::size_t in, std::size_t out) {
    nn::Conv2dConfig cc;
    cc.in_channels = in;
    cc.out_channels = out;
    return std::make_unique<nn::Conv2d>(cc, rng);
  };
  const auto bn = [](std::size_t channels) { return std::make_unique<nn::BatchNorm2d>(channels); };
  const auto relu = [] { return std::make_unique<nn::ReLU>(); };
  const auto flatten = [] { return std::make_unique<nn::Flatten>(); };

  nn::Sequential sigmoid;  // a non-ReLU activation
  sigmoid.add(conv(1, 4)).add(bn(4)).add(std::make_unique<nn::Sigmoid>()).add(flatten());
  EXPECT_THROW(nn::fold_branch(sigmoid), ShapeError);
  EXPECT_THROW(nn::InferencePlan::compile(sigmoid, 6, 30), ShapeError);

  nn::Sequential tail;  // a trailing layer that is not a Flatten
  tail.add(conv(1, 4)).add(bn(4)).add(relu()).add(relu());
  EXPECT_THROW(nn::fold_branch(tail), ShapeError);

  nn::Sequential no_triples;
  no_triples.add(flatten());
  EXPECT_THROW(nn::fold_branch(no_triples), ShapeError);

  nn::Sequential unchained;  // the second conv does not read the first's output
  unchained.add(conv(1, 4)).add(bn(4)).add(relu()).add(conv(6, 8)).add(bn(8)).add(relu());
  EXPECT_THROW(nn::fold_branch(unchained), ShapeError);

  nn::Sequential narrow_bn;  // a BatchNorm narrower than its conv
  narrow_bn.add(conv(1, 4)).add(bn(3)).add(relu());
  EXPECT_THROW(nn::fold_branch(narrow_bn), ShapeError);

  nn::Sequential no_flatten;  // the Flatten is optional
  no_flatten.add(conv(1, 4)).add(bn(4)).add(relu()).add(conv(4, 8)).add(bn(8)).add(relu());
  EXPECT_EQ(nn::fold_branch(no_flatten).size(), 2u);
}

TEST(FoldBranch, OwnEpsAndNonPaperGeometryMatchReferenceForward) {
  // Every conv here differs from the paper's 3x3 / stride 1x2 / pad 1,
  // and each BatchNorm has its own non-default eps, so a fold or stage
  // geometry that assumed either would miss the reference by far more
  // than the bound.
  Rng rng(11);
  nn::Conv2dConfig a;
  a.in_channels = 2;
  a.out_channels = 5;
  a.kernel_h = 2;
  a.kernel_w = 5;
  a.stride_h = 2;
  a.stride_w = 1;
  a.pad_h = 0;
  a.pad_w = 2;
  nn::Conv2dConfig b;
  b.in_channels = 5;
  b.out_channels = 3;
  b.kernel_h = 3;
  b.kernel_w = 1;
  b.stride_h = 1;
  b.stride_w = 3;
  b.pad_h = 1;
  b.pad_w = 0;
  nn::Sequential branch;
  branch.add(std::make_unique<nn::Conv2d>(a, rng))
      .add(std::make_unique<nn::BatchNorm2d>(a.out_channels, 0.1, 0.5))
      .add(std::make_unique<nn::ReLU>())
      .add(std::make_unique<nn::Conv2d>(b, rng))
      .add(std::make_unique<nn::BatchNorm2d>(b.out_channels, 0.1, 2e-3))
      .add(std::make_unique<nn::ReLU>())
      .add(std::make_unique<nn::Flatten>());
  const std::size_t h = 7;
  const std::size_t w = 13;
  const auto random_input = [&](std::size_t n) {
    nn::Tensor x({n, a.in_channels, h, w});
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(rng.normal(0.3, 1.0));
    }
    return x;
  };
  // Train-mode forwards move the running statistics off (0, 1); jittered
  // parameters move gamma and beta off (1, 0).
  for (int step = 0; step < 5; ++step) {
    (void)branch.forward(random_input(4), /*train=*/true);
  }
  for (nn::Param* p : branch.params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value[i] += static_cast<float>(rng.normal(0.0, 0.2));
    }
  }

  const nn::InferencePlan plan = nn::InferencePlan::compile(branch, h, w);
  const nn::Tensor probe = random_input(1);
  const nn::Tensor ref = branch.forward(probe, /*train=*/false);
  ASSERT_EQ(plan.input_count(), probe.size());
  ASSERT_EQ(plan.feature_count(), ref.size());
  nn::ScratchArena arena;
  arena.assert_owner();
  std::vector<float> got(plan.feature_count());
  plan.run(probe.data(), got.data(), arena);
  float worst = 0.0f;
  for (std::size_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst, std::abs(got[i] - ref[i]));
  }
  EXPECT_LE(worst, kEmbedTol);

  // The int8 plan compiles the same folded blocks onto the same stage
  // geometry; its 7-bit activations and int8 weights keep every feature
  // within a few percent of the feature range.
  const nn::QuantizedInferencePlan qplan =
      nn::QuantizedInferencePlan::compile(nn::fold_branch(branch), h, w);
  ASSERT_EQ(qplan.feature_count(), ref.size());
  std::vector<float> q(qplan.feature_count());
  arena.reset();
  qplan.run(probe.data(), q.data(), arena);
  float range = 0.0f;
  float q_worst = 0.0f;
  for (std::size_t i = 0; i < q.size(); ++i) {
    range = std::max(range, std::abs(ref[i]));
    q_worst = std::max(q_worst, std::abs(q[i] - ref[i]));
  }
  EXPECT_LE(q_worst, 5e-2f * range);
}

}  // namespace
}  // namespace mandipass::core
