// Float reconstruction of an int8 QuantizedMatrix: the reference the
// quantisation tests hold quantize_rows to. No product path dequantizes a
// whole matrix, so this lives with the tests.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "nn/quantize.h"

namespace mandipass::nn {

/// Reconstructs the float matrix: w[r][c] = w_int8[r][c] * scale_r.
inline Tensor dequantize(const QuantizedMatrix& q) {
  Tensor out({q.rows, q.cols});
  for (std::size_t r = 0; r < q.rows; ++r) {
    const float scale = q.scales[r];
    for (std::size_t c = 0; c < q.cols; ++c) {
      out.at2(r, c) = static_cast<float>(q.values[r * q.cols + c]) * scale;
    }
  }
  return out;
}

/// Max absolute elementwise reconstruction error.
inline double quantization_error(const Tensor& matrix, const QuantizedMatrix& q) {
  MANDIPASS_EXPECTS(matrix.rank() == 2);
  MANDIPASS_EXPECTS(matrix.dim(0) == q.rows && matrix.dim(1) == q.cols);
  const Tensor back = dequantize(q);
  double max_err = 0.0;
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    max_err =
        std::max(max_err, std::abs(static_cast<double>(matrix[i]) - static_cast<double>(back[i])));
  }
  return max_err;
}

}  // namespace mandipass::nn
