#include "auth/gaussian_matrix.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/crc32.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace mandipass::auth {

namespace {

// About the fewest draws a lane generates (the grain is whole rows).
// Below ~1k normals (~30 us of Box-Muller) waking a lane costs about what
// it saves, so keys under dim ~45 build inline; at dim 64 four lanes of
// 1k draws still halve the build.
constexpr std::size_t kMinLaneDraws = 1024;

}  // namespace

GaussianMatrix::GaussianMatrix(std::uint64_t seed, std::size_t dim) : seed_(seed), dim_(dim) {
  MANDIPASS_EXPECTS(dim > 0);
  const double sigma = 1.0 / std::sqrt(static_cast<double>(dim));
  // x' = x * G: output j contracts column j of G, so G's row i is column i
  // of the packed operand and is written there as soon as it is drawn.
  gemm_.reset(dim, dim);
  // G[i][j] is the (i * dim + j)-th normal of Rng(seed). Each lane seeds
  // its own generator and skips the draws of the rows before its first,
  // so every entry is the value a serial walk would draw, whatever the
  // lane count.
  const std::size_t grain = std::max<std::size_t>(1, kMinLaneDraws / dim);
  common::parallel_for(0, dim, grain, [&](std::size_t lo, std::size_t hi) {
    Rng rng(seed);
    rng.discard_normals(lo * dim);
    std::vector<float> row(dim);
    for (std::size_t i = lo; i < hi; ++i) {
      for (float& v : row) {
        v = static_cast<float>(rng.normal(0.0, sigma));
      }
      gemm_.write_column(i, row);
    }
  });
}

std::vector<float> GaussianMatrix::transform(std::span<const float> x) const {
  MANDIPASS_EXPECTS(x.size() == dim_);
  std::vector<float> out(dim_);
  gemm_.run(x.data(), out.data(), 1, nn::Epilogue::None);
  return out;
}

void GaussianMatrix::transform_batch(std::span<const float> xs, std::size_t count,
                                     std::span<float> out) const {
  MANDIPASS_EXPECTS(count > 0 && xs.size() == count * dim_ && out.size() == count * dim_);
  // x-major store: probe i's transformed vector is contiguous at
  // out[i * dim], ready to hand to cosine_distance as a span.
  gemm_.run_xmajor(xs.data(), count, dim_, out.data(), dim_, nn::Epilogue::None);
}

std::uint32_t GaussianMatrix::checksum() const {
  const std::vector<float>& w = gemm_.packed_weights();
  return common::crc32(w.data(), w.size() * sizeof(float));
}

}  // namespace mandipass::auth
