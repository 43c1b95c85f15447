// The two intermediate data products of the MandiPass pipeline:
//
//   SignalArray   (6, n)      — Section IV's preprocessed, normalised,
//                               multi-axis concatenated signal array
//   GradientArray (2, K, n/2) — Section V-B's sign-separated, resampled
//                               gradient array ('2' = the positive and
//                               negative vibration directions)
//
// The paper sets n = 60 empirically.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "imu/types.h"
#include "nn/tensor.h"

namespace mandipass::core {

/// Default segment length n (samples per axis).
inline constexpr std::size_t kDefaultSegmentLength = 60;

/// Preprocessed signal array: one normalised segment per IMU axis.
struct SignalArray {
  std::array<std::vector<double>, imu::kAxisCount> axes{};

  std::size_t segment_length() const { return axes[0].size(); }
  const std::vector<double>& axis(imu::Axis a) const {
    return axes[static_cast<std::size_t>(a)];
  }
};

/// Gradient array: per axis, the positive- and negative-direction
/// gradients, each linearly resampled to half the segment length.
struct GradientArray {
  /// positive[axis] / negative[axis], each of size half_length.
  std::array<std::vector<double>, imu::kAxisCount> positive{};
  std::array<std::vector<double>, imu::kAxisCount> negative{};

  std::size_t half_length() const { return positive[0].size(); }
};

/// Builds a GradientArray from a SignalArray (Eq. 8 + sign split +
/// interpolation). `half` defaults to segment_length / 2.
GradientArray build_gradient_array(const SignalArray& array, std::size_t half = 0);

/// Precondition of every extractor entry point: 1 <= axes <= 6 and the
/// first `axes` axes of both directions hold `half` values each
/// (half_length() reads axis 0 only). Throws PreconditionError otherwise.
void expect_branch_shape(const GradientArray& array, std::size_t axes, std::size_t half);

/// Packs the first `axes` axes of one direction (GradientArray::positive
/// or ::negative) into a dense (axes, half) float plane: one branch input
/// sample, in the layout pack_branches uses.
void pack_plane(const std::array<std::vector<double>, imu::kAxisCount>& direction,
                std::size_t axes, std::size_t half, float* plane);

/// Batch of gradient arrays packed into the two branch input tensors,
/// using only the first `axes` axes (the Fig. 11(a) ablation order
/// ax, ay, az, gx, gy, gz). Shapes: (N, 1, axes, half).
struct BranchTensors {
  nn::Tensor positive;
  nn::Tensor negative;
};
BranchTensors pack_branches(std::span<const GradientArray> batch, std::size_t axes);

/// Overload keeping brace-init call sites working (std::span has no
/// initializer_list constructor until C++26).
inline BranchTensors pack_branches(const std::vector<GradientArray>& batch, std::size_t axes) {
  return pack_branches(std::span<const GradientArray>(batch), axes);
}

}  // namespace mandipass::core
