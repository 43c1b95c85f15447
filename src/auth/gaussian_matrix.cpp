#include "auth/gaussian_matrix.h"

#include <cmath>
#include <span>
#include <utility>

#include "common/crc32.h"
#include "common/error.h"
#include "common/rng.h"

namespace mandipass::auth {

GaussianMatrix::GaussianMatrix(std::uint64_t seed, std::size_t dim, std::vector<float> storage)
    : seed_(seed), dim_(dim) {
  MANDIPASS_EXPECTS(dim > 0);
  const double sigma = 1.0 / std::sqrt(static_cast<double>(dim));
  // x' = x * G: output j contracts column j of G, so G's row i is column i
  // of the packed operand and is written there as soon as it is drawn.
  // G[i][j] is the (i * dim + j)-th normal(0, sigma) of Rng(seed):
  // normal_floats gives those floats bit for bit, a row at a time.
  gemm_.reset(dim, dim, std::move(storage));
  Rng rng(seed);
  std::vector<float> row(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    rng.normal_floats(row, sigma);
    gemm_.write_column(i, row);
  }
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
