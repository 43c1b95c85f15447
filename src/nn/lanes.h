// Fixed-width float lanes: how the layer path's loops vectorize without
// reassociating a sum.
//
// The tree builds IEEE-strict (DESIGN.md §13.3), so the compiler may not
// reorder a plain `acc += x[i] * w[i]` chain to vectorize it. `Lanes` is
// one GCC/Clang vector of kLanes floats: element-wise arithmetic only, so
// code written on it runs at full vector width on any target, and its
// result does not depend on the vector width. Values move in and out of
// it by memcpy (any alignment) and cross a function boundary only by
// reference, so no ABI depends on the target's vector registers.
// Conv2d::forward keeps a block of kLanes output channels' sums in one
// `Lanes` (nn/conv2d.cpp); lane_dot below is the dot product of
// Linear::forward, and the int8 scalar reference (nn::quantized_matvec)
// sums each row in the same order.
#pragma once

#include <cstddef>
#include <cstring>

namespace mandipass::nn {

inline constexpr std::size_t kLanes = 16;
using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));

/// The lanes of `acc` added pairwise: lane l += lane l + h for h = 8, 4,
/// 2, 1, then lane 0.
inline float lane_sum(const Lanes& acc) {
  static_assert(kLanes == 16, "the halving steps below are written for 16 lanes");
  using Half = float __attribute__((vector_size(8 * sizeof(float))));
  using Quarter = float __attribute__((vector_size(4 * sizeof(float))));
  Half lo;
  Half hi;
  std::memcpy(&lo, &acc, sizeof lo);
  std::memcpy(&hi, reinterpret_cast<const char*>(&acc) + sizeof lo, sizeof hi);
  lo += hi;
  Quarter a;
  Quarter b;
  std::memcpy(&a, &lo, sizeof a);
  std::memcpy(&b, reinterpret_cast<const char*>(&lo) + sizeof a, sizeof b);
  a += b;
  return (a[0] + a[2]) + (a[1] + a[3]);
}

/// sum_i x[i] * w[i]: the whole blocks of kLanes in interleaved partial
/// sums, each in ascending order, combined by lane_sum, then the tail in
/// ascending order.
inline float lane_dot(const float* x, const float* w, std::size_t n) {
  Lanes acc = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Lanes xv;
    Lanes wv;
    std::memcpy(&xv, x + i, sizeof xv);
    std::memcpy(&wv, w + i, sizeof wv);
    acc += xv * wv;
  }
  float sum = i > 0 ? lane_sum(acc) : 0.0f;
  for (; i < n; ++i) {
    sum += x[i] * w[i];
  }
  return sum;
}

}  // namespace mandipass::nn
