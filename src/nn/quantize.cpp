#include "nn/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "nn/lanes.h"

namespace mandipass::nn {

QuantizedMatrix quantize_rows(const Tensor& matrix) {
  MANDIPASS_EXPECTS(matrix.rank() == 2);
  QuantizedMatrix q;
  q.rows = matrix.dim(0);
  q.cols = matrix.dim(1);
  q.values.resize(q.rows * q.cols);
  q.scales.resize(q.rows);
  for (std::size_t r = 0; r < q.rows; ++r) {
    const float* row = matrix.data() + r * q.cols;
    float max_abs = 0.0f;
    for (std::size_t c = 0; c < q.cols; ++c) {
      max_abs = std::max(max_abs, std::abs(row[c]));
    }
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 0.0f;
    q.scales[r] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (std::size_t c = 0; c < q.cols; ++c) {
      const float v = std::round(row[c] * inv);
      q.values[r * q.cols + c] = static_cast<std::int8_t>(std::clamp(v, -127.0f, 127.0f));
    }
  }
  return q;
}

void quantized_matvec(const QuantizedMatrix& q, const float* x, const float* bias, float* y) {
  MANDIPASS_EXPECTS(x != nullptr && bias != nullptr && y != nullptr);
  // Each row's dot product is summed in lane_dot's order (nn/lanes.h).
  // kRows rows go together, so their add chains overlap and they share
  // the loads of x, and their int8 values are widened to float kChunk at
  // a time, in a plain loop the compiler vectorizes well. A last group of
  // fewer rows repeats its last row and drops the copies.
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kChunk = 16 * kLanes;
  const std::size_t n = q.cols;
  const std::size_t whole = n - n % kLanes;
  float w[kRows][kChunk];
  for (std::size_t r0 = 0; r0 < q.rows; r0 += kRows) {
    const std::size_t count = std::min(kRows, q.rows - r0);
    const std::int8_t* row[kRows];
    for (std::size_t k = 0; k < kRows; ++k) {
      row[k] = q.values.data() + (r0 + std::min(k, count - 1)) * n;
    }
    Lanes acc[kRows] = {};
    for (std::size_t c0 = 0; c0 < whole; c0 += kChunk) {
      const std::size_t len = std::min(kChunk, whole - c0);
      for (std::size_t k = 0; k < kRows; ++k) {
        for (std::size_t c = 0; c < len; ++c) {
          w[k][c] = static_cast<float>(row[k][c0 + c]);
        }
      }
      for (std::size_t c = 0; c < len; c += kLanes) {
        Lanes xv;
        std::memcpy(&xv, x + c0 + c, sizeof xv);
        for (std::size_t k = 0; k < kRows; ++k) {
          Lanes wv;
          std::memcpy(&wv, &w[k][c], sizeof wv);
          acc[k] += xv * wv;
        }
      }
    }
    float dot[kRows];
    for (std::size_t k = 0; k < kRows; ++k) {
      dot[k] = whole > 0 ? lane_sum(acc[k]) : 0.0f;
    }
    for (std::size_t c = whole; c < n; ++c) {
      for (std::size_t k = 0; k < kRows; ++k) {
        dot[k] += x[c] * static_cast<float>(row[k][c]);
      }
    }
    for (std::size_t k = 0; k < count; ++k) {
      // A zero-scale row is all-zero (quantize_rows maps an all-zero
      // float row to scale 0): pass the bias through exactly — no
      // 0.0f * acc rounding, and no NaN from a non-finite input.
      const std::size_t r = r0 + k;
      y[r] = q.scales[r] == 0.0f ? bias[r] : dot[k] * q.scales[r] + bias[r];
    }
  }
}

}  // namespace mandipass::nn
