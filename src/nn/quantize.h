// Weight quantisation utilities for on-device deployment.
//
// The paper budgets ~5 MB for the extractor on the earbud (Section
// VII-E). Symmetric per-row int8 weight quantisation cuts that by 4x
// with negligible accuracy impact; activations stay float (weight-only
// quantisation), which is the usual choice for tiny MCU-class models
// whose activations are cheap but whose weight storage dominates.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace mandipass::nn {

/// A 2-D int8 weight matrix with one scale per row (output unit).
struct QuantizedMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int8_t> values;  ///< rows x cols
  std::vector<float> scales;        ///< per row: w_float = w_int8 * scale

  std::size_t storage_bytes() const {
    return values.size() * sizeof(std::int8_t) + scales.size() * sizeof(float);
  }
};

/// Quantises a (rows, cols) float matrix symmetrically, one scale per
/// row: scale_r = max|W_r| / 127. An all-zero row gets scale 0.
QuantizedMatrix quantize_rows(const Tensor& matrix);

/// y = x * W^T + b with int8 W: y[r] = scale_r * sum_c x[c] * Wq[r][c] + b[r].
/// Precondition: x.size() == q.cols, bias.size() == q.rows.
void quantized_matvec(const QuantizedMatrix& q, const float* x, const float* bias, float* y);

}  // namespace mandipass::nn
