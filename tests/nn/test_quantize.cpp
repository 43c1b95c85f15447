// Quantisation primitive tests live with the nn module; the end-to-end
// QuantizedExtractor tests are in tests/core/test_quantized_extractor.cpp.
#include "nn/quantize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "nn/quantize_reference.h"

namespace mandipass::nn {
namespace {

TEST(Quantize, ShapeAndSize) {
  Tensor w({3, 7});
  const auto q = quantize_rows(w);
  EXPECT_EQ(q.rows, 3u);
  EXPECT_EQ(q.cols, 7u);
  EXPECT_EQ(q.values.size(), 21u);
  EXPECT_EQ(q.scales.size(), 3u);
  EXPECT_EQ(q.storage_bytes(), 21u + 3u * sizeof(float));
}

TEST(Quantize, ExtremesMapTo127) {
  Tensor w({1, 3});
  w.at2(0, 0) = -2.0f;
  w.at2(0, 1) = 1.0f;
  w.at2(0, 2) = 2.0f;
  const auto q = quantize_rows(w);
  EXPECT_EQ(q.values[0], -127);
  EXPECT_EQ(q.values[2], 127);
  EXPECT_NEAR(q.scales[0], 2.0f / 127.0f, 1e-9);
}

TEST(Quantize, PerRowScalesIndependent) {
  Tensor w({2, 2});
  w.at2(0, 0) = 0.01f;
  w.at2(0, 1) = -0.01f;
  w.at2(1, 0) = 100.0f;
  w.at2(1, 1) = -100.0f;
  const auto q = quantize_rows(w);
  // The small row keeps full resolution despite the huge row.
  EXPECT_NEAR(dequantize(q).at2(0, 0), 0.01f, 1e-4);
  EXPECT_NEAR(dequantize(q).at2(1, 0), 100.0f, 1.0f);
}

TEST(Quantize, NonMatrixThrows) {
  Tensor w({2, 2, 2, 2});
  EXPECT_THROW(quantize_rows(w), PreconditionError);
}

TEST(Quantize, MatvecZeroScaleRowShortCircuitsToBias) {
  // A zero weight row quantizes to scale 0; the matvec must hand the
  // bias through exactly, never multiply by the (meaningless) scale.
  Tensor w({2, 3});
  w.at2(1, 0) = 4.0f;
  const auto q = quantize_rows(w);
  ASSERT_EQ(q.scales[0], 0.0f);
  const float x[3] = {1e30f, -1e30f, 1e30f};
  const float bias[2] = {-2.5f, 0.75f};
  float y[2] = {0.0f, 0.0f};
  quantized_matvec(q, x, bias, y);
  EXPECT_EQ(y[0], -2.5f);  // exact, despite the huge activations
}

TEST(Quantize, MatvecRowDoesNotDependOnItsNeighboursAtAnyShape) {
  // The matvec takes rows in groups and widens their int8 values in
  // chunks; a row's result must be the same bits when it is alone, and
  // near the exact dot product. Shapes cover a tail-only row (9 taps),
  // row counts that are not a multiple of the group, columns past one
  // chunk with a tail, and a zero row inside a group.
  Rng rng(11);
  const std::size_t shapes[][2] = {{1, 9}, {7, 9}, {5, 300}, {9, 531}, {4, 16}};
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0];
    const std::size_t cols = shape[1];
    Tensor w({rows, cols});
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = static_cast<float>(rng.normal());
    }
    if (rows > 3) {
      for (std::size_t c = 0; c < cols; ++c) {
        w.at2(3, c) = 0.0f;
      }
    }
    const QuantizedMatrix q = quantize_rows(w);
    std::vector<float> x(cols);
    std::vector<float> bias(rows);
    for (auto& v : x) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    for (auto& v : bias) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    std::vector<float> y(rows);
    quantized_matvec(q, x.data(), bias.data(), y.data());
    for (std::size_t r = 0; r < rows; ++r) {
      QuantizedMatrix one;
      one.rows = 1;
      one.cols = cols;
      one.values.assign(q.values.begin() + static_cast<std::ptrdiff_t>(r * cols),
                        q.values.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
      one.scales = {q.scales[r]};
      float alone = 0.0f;
      quantized_matvec(one, x.data(), &bias[r], &alone);
      EXPECT_EQ(alone, y[r]) << rows << "x" << cols << " row " << r;
      double exact = 0.0;
      double magnitude = 0.0;
      for (std::size_t c = 0; c < cols; ++c) {
        const double term = static_cast<double>(x[c]) * q.values[r * cols + c];
        exact += term;
        magnitude += std::fabs(term);
      }
      exact = exact * q.scales[r] + bias[r];
      EXPECT_NEAR(y[r], exact, 1e-5 * magnitude * q.scales[r] + 1e-6)
          << rows << "x" << cols << " row " << r;
    }
    if (rows > 3) {
      EXPECT_EQ(y[3], bias[3]);
    }
  }
}

TEST(Quantize, ErrorMetricZeroForExactValues) {
  Tensor w({1, 2});
  w.at2(0, 0) = 127.0f;
  w.at2(0, 1) = -127.0f;
  const auto q = quantize_rows(w);
  EXPECT_NEAR(quantization_error(w, q), 0.0, 1e-5);
}

}  // namespace
}  // namespace mandipass::nn
