#include "core/signal_array.h"

#include "common/error.h"
#include "dsp/gradient.h"

namespace mandipass::core {

GradientArray build_gradient_array(const SignalArray& array, std::size_t half) {
  const std::size_t n = array.segment_length();
  MANDIPASS_EXPECTS(n >= 2);
  if (half == 0) {
    half = n / 2;
  }
  GradientArray out;
  for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
    MANDIPASS_EXPECTS(array.axes[a].size() == n);
    auto split = dsp::direction_gradients(array.axes[a], half);
    out.positive[a] = std::move(split.positive);
    out.negative[a] = std::move(split.negative);
  }
  return out;
}

void expect_branch_shape(const GradientArray& array, std::size_t axes, std::size_t half) {
  MANDIPASS_EXPECTS(axes >= 1 && axes <= imu::kAxisCount);
  for (std::size_t a = 0; a < axes; ++a) {
    MANDIPASS_EXPECTS(array.positive[a].size() == half && array.negative[a].size() == half);
  }
}

void pack_plane(const std::array<std::vector<double>, imu::kAxisCount>& direction,
                std::size_t axes, std::size_t half, float* plane) {
  for (std::size_t a = 0; a < axes; ++a) {
    const double* src = direction[a].data();
    float* dst = plane + a * half;
    for (std::size_t w = 0; w < half; ++w) {
      dst[w] = static_cast<float>(src[w]);
    }
  }
}

BranchTensors pack_branches(std::span<const GradientArray> batch, std::size_t axes) {
  MANDIPASS_EXPECTS(!batch.empty());
  const std::size_t half = batch.front().half_length();
  for (const GradientArray& g : batch) {
    expect_branch_shape(g, axes, half);
  }
  const std::size_t n = batch.size();
  BranchTensors t{nn::Tensor({n, 1, axes, half}), nn::Tensor({n, 1, axes, half})};
  for (std::size_t b = 0; b < n; ++b) {
    pack_plane(batch[b].positive, axes, half, t.positive.data() + b * axes * half);
    pack_plane(batch[b].negative, axes, half, t.negative.data() + b * axes * half);
  }
  return t;
}

}  // namespace mandipass::core
