#include "auth/gaussian_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "auth/cosine.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace mandipass::auth {
namespace {

/// G drawn the serial way: one Rng(seed), row-major G[i][j] = the
/// (i * dim + j)-th normal(0, 1/sqrt(dim)).
std::vector<float> serial_reference(std::uint64_t seed, std::size_t dim) {
  Rng rng(seed);
  const double sigma = 1.0 / std::sqrt(static_cast<double>(dim));
  std::vector<float> g(dim * dim);
  for (float& v : g) {
    v = static_cast<float>(rng.normal(0.0, sigma));
  }
  return g;
}

/// CRC of `g` packed per nn::PackedGemm's documented layout for W = G^T:
/// packed[(block * dim + k) * 16 + j] = G[k][block * 16 + j], tails zero.
std::uint32_t reference_checksum(const std::vector<float>& g, std::size_t dim) {
  constexpr std::size_t kB = nn::PackedGemm::kOcBlock;
  const std::size_t blocks = (dim + kB - 1) / kB;
  std::vector<float> packed(blocks * dim * kB, 0.0f);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t k = 0; k < dim; ++k) {
      packed[((r / kB) * dim + k) * kB + r % kB] = g[k * dim + r];
    }
  }
  return common::crc32(packed.data(), packed.size() * sizeof(float));
}

/// Expects `m` to hold exactly `g`: transform_batch of the identity reads
/// G back entry by entry (every product but x[i] * G[i][j] is an exact
/// zero, so out[i * dim + j] == G[i][j] bit for bit), and checksum() must
/// match the reference packing, zero padding included.
void expect_bits(const GaussianMatrix& m, const std::vector<float>& g, const std::string& what) {
  const std::size_t dim = m.dim();
  std::vector<float> identity(dim * dim, 0.0f);
  for (std::size_t i = 0; i < dim; ++i) {
    identity[i * dim + i] = 1.0f;
  }
  std::vector<float> read(dim * dim);
  m.transform_batch(identity, dim, read);
  std::size_t mismatches = 0;
  for (std::size_t e = 0; e < g.size(); ++e) {
    if (std::memcmp(&read[e], &g[e], sizeof(float)) != 0 && mismatches++ < 3) {
      ADD_FAILURE() << what << ": G[" << e / dim << "][" << e % dim << "] = " << read[e]
                    << ", serial draw " << g[e];
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  EXPECT_EQ(m.checksum(), reference_checksum(g, dim)) << what;
}

/// Restores the global pool's size when a test that resizes it ends.
class GlobalPoolGuard {
 public:
  GlobalPoolGuard() : lanes_(common::ThreadPool::global_thread_count()) {}
  ~GlobalPoolGuard() { common::ThreadPool::set_global_threads(lanes_); }
  GlobalPoolGuard(const GlobalPoolGuard&) = delete;
  GlobalPoolGuard& operator=(const GlobalPoolGuard&) = delete;

 private:
  std::size_t lanes_;
};

// Odd dims put a Box-Muller pair across a row boundary; rows of 257 and
// 512 draws span more than one of Rng::normal_floats' 128-pair blocks.
constexpr std::size_t kPinnedDims[] = {1, 3, 17, 37, 64, 127, 256, 257, 512};
constexpr std::uint64_t kPinnedSeeds[] = {0, 7, 0x9E3779B97F4A7C15ULL};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.uniform(0.0, 1.0));  // sigmoid-range, like MandiblePrints
  }
  return v;
}

TEST(GaussianMatrix, DeterministicForSeed) {
  const GaussianMatrix a(7, 64);
  const GaussianMatrix b(7, 64);
  const auto x = random_vec(64, 1);
  const auto ya = a.transform(x);
  const auto yb = b.transform(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

TEST(GaussianMatrix, DifferentSeedsDiffer) {
  const GaussianMatrix a(7, 64);
  const GaussianMatrix b(8, 64);
  const auto x = random_vec(64, 1);
  EXPECT_GT(cosine_distance(a.transform(x), b.transform(x)), 0.3);
}

TEST(GaussianMatrix, SameMatrixPreservesSimilarStructure) {
  // The core cancelable-template property: distances under the SAME matrix
  // track the original distances (random projection ~ isometry on average).
  const GaussianMatrix g(42, 128);
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    auto x = random_vec(128, 100 + trial);
    auto y = x;
    // y = small perturbation of x (a genuine user's fresh probe).
    for (auto& v : y) {
      v += static_cast<float>(rng.normal(0.0, 0.02));
    }
    const double before = cosine_distance(x, y);
    const double after = cosine_distance(g.transform(x), g.transform(y));
    EXPECT_LT(std::abs(after - before), 0.12);
  }
}

TEST(GaussianMatrix, DifferentMatricesDecorrelate) {
  // The re-key property: the SAME print under two different matrices must
  // look like strangers (this is what defeats replay).
  Rng rng(3);
  double mean_distance = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const GaussianMatrix g1(1000 + t, 128);
    const GaussianMatrix g2(2000 + t, 128);
    const auto x = random_vec(128, 300 + t);
    mean_distance += cosine_distance(g1.transform(x), g2.transform(x));
  }
  mean_distance /= trials;
  // Random projections of positive vectors are near-orthogonal on average.
  EXPECT_GT(mean_distance, 0.7);
}

TEST(GaussianMatrix, TransformIsLinear) {
  const GaussianMatrix g(9, 32);
  const auto x = random_vec(32, 4);
  auto x2 = x;
  for (auto& v : x2) {
    v *= 2.0f;
  }
  const auto y = g.transform(x);
  const auto y2 = g.transform(x2);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y2[i], 2.0f * y[i], 1e-3f);
  }
}

TEST(GaussianMatrix, OutputDimensionMatches) {
  const GaussianMatrix g(5, 16);
  EXPECT_EQ(g.transform(random_vec(16, 5)).size(), 16u);
  EXPECT_EQ(g.dim(), 16u);
  EXPECT_EQ(g.seed(), 5u);
}

TEST(GaussianMatrix, TemplateBytes) {
  EXPECT_EQ(GaussianMatrix::template_bytes(512), 2048u);  // ~the paper's 1.8 KB claim
}

TEST(GaussianMatrix, WrongInputSizeThrows) {
  const GaussianMatrix g(5, 16);
  EXPECT_THROW(g.transform(random_vec(8, 1)), PreconditionError);
}

TEST(GaussianMatrix, BitsMatchTheSerialDraw) {
  for (const std::size_t dim : kPinnedDims) {
    for (const std::uint64_t seed : kPinnedSeeds) {
      expect_bits(GaussianMatrix(seed, dim), serial_reference(seed, dim),
                  "dim " + std::to_string(dim) + " seed " + std::to_string(seed));
    }
  }
}

TEST(GaussianMatrix, BitsMatchWhenBuiltInsideAPoolLane) {
  // Four pool lanes (as in a shard fan-out or a parallel oracle) build at
  // once, each its own key.
  const GlobalPoolGuard guard;
  common::ThreadPool::set_global_threads(4);
  constexpr std::size_t kDim = 257;
  std::vector<std::unique_ptr<GaussianMatrix>> built(4);
  common::parallel_for(0, built.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      built[i] = std::make_unique<GaussianMatrix>(100 + i, kDim);
    }
  });
  for (std::size_t i = 0; i < built.size(); ++i) {
    expect_bits(*built[i], serial_reference(100 + i, kDim), "pool lane " + std::to_string(i));
  }
}

TEST(GaussianMatrix, BitsMatchWhenFourThreadsBuildAtOnce) {
  // Four plain threads build at once, each its own key on its own thread:
  // concurrent builds share no state.
  const GlobalPoolGuard guard;
  common::ThreadPool::set_global_threads(4);
  constexpr std::size_t kDim = 512;
  std::vector<std::unique_ptr<GaussianMatrix>> built(4);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < built.size(); ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 4) {
        std::this_thread::yield();
      }
      built[t] = std::make_unique<GaussianMatrix>(200 + t, kDim);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (std::size_t t = 0; t < built.size(); ++t) {
    expect_bits(*built[t], serial_reference(200 + t, kDim), "thread " + std::to_string(t));
  }
}

TEST(GaussianMatrix, BitsMatchWhenBuiltIntoARecycledBuffer) {
  // A key built into the packed buffer a discarded key of the same dim
  // gave up (MatrixCache's recycling) keeps that allocation and is a fresh
  // build bit for bit: every float is overwritten, the zero padding of a
  // partial last block included.
  for (const std::size_t dim : {std::size_t{17}, std::size_t{64}, std::size_t{257}}) {
    const std::string what = "dim " + std::to_string(dim);
    GaussianMatrix discarded(1, dim);
    std::vector<float> buffer = discarded.release_storage();
    std::fill(buffer.begin(), buffer.end(), std::numeric_limits<float>::quiet_NaN());
    const float* storage = buffer.data();
    GaussianMatrix rebuilt(2, dim, std::move(buffer));
    expect_bits(rebuilt, serial_reference(2, dim), what);
    const GaussianMatrix fresh(2, dim);
    EXPECT_EQ(rebuilt.checksum(), fresh.checksum()) << what;
    const auto x = random_vec(dim, 3);
    EXPECT_EQ(rebuilt.transform(x), fresh.transform(x)) << what;
    EXPECT_EQ(rebuilt.release_storage().data(), storage) << what << ": buffer reallocated";
  }
}

TEST(GaussianMatrix, ZeroDimThrows) {
  EXPECT_THROW(GaussianMatrix(1, 0), PreconditionError);
}

}  // namespace
}  // namespace mandipass::auth
