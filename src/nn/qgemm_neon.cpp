// NEON int8 GEMM tier for the earphone-adjacent aarch64 target.
// With __ARM_FEATURE_DOTPROD one vdotq_s32 per 4-channel quartet per
// k-group computes exact s8×s8 dot products into i32 lanes (activations
// are in [0, 127], so reinterpreting the u8 bytes as s8 is value
// preserving). Pre-dotprod cores fall back to vmull_s8 widening
// multiplies + pairwise adds — both paths are exact integer sums and
// therefore bit-identical to the generic tier.
// mandilint: allow-file(expects-guard) -- pure kernel TU: total functions over
// caller-validated packed buffers; preconditions live in PackedQuantizedGemm.
#include "nn/qgemm_kernels.h"

#if defined(__ARM_NEON) && defined(__aarch64__) && \
    !defined(MANDIPASS_FORCE_GENERIC_KERNELS)

#include <arm_neon.h>

#include <cstring>

namespace mandipass::nn::detail {
namespace {

// One packed k-group = 64 weight bytes = four 16-byte quartets; quartet
// q holds channels 4q..4q+3, four taps each, matching vdot's lane
// structure exactly.
template <std::size_t P>
inline void accumulate_neon(const std::int8_t* wb, const std::uint8_t* x,
                            std::size_t x_stride, std::size_t kgroups,
                            std::int32_t* acc) {
  int32x4_t accv[P][4];
  for (std::size_t p = 0; p < P; ++p) {
    for (int q = 0; q < 4; ++q) accv[p][q] = vdupq_n_s32(0);
  }
  for (std::size_t kg = 0; kg < kgroups; ++kg) {
    const std::int8_t* wg = wb + kg * kQGroupBytes;
    int8x16_t w[4];
    for (int q = 0; q < 4; ++q) w[q] = vld1q_s8(wg + q * 16);
    for (std::size_t p = 0; p < P; ++p) {
      std::uint32_t a32;
      std::memcpy(&a32, x + p * x_stride +
                            kg * kTapGroup,
                  sizeof(a32));
      const int8x16_t a = vreinterpretq_s8_u32(vdupq_n_u32(a32));
      for (int q = 0; q < 4; ++q) {
#if defined(__ARM_FEATURE_DOTPROD)
        accv[p][q] = vdotq_s32(accv[p][q], a, w[q]);
#else
        const int16x8_t lo = vmull_s8(vget_low_s8(a), vget_low_s8(w[q]));
        const int16x8_t hi = vmull_s8(vget_high_s8(a), vget_high_s8(w[q]));
        accv[p][q] = vaddq_s32(
            accv[p][q], vpaddq_s32(vpaddlq_s16(lo), vpaddlq_s16(hi)));
#endif
      }
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    for (int q = 0; q < 4; ++q) {
      vst1q_s32(acc + p * kQOcBlock +
                    static_cast<std::size_t>(q) * 4,
                accv[p][q]);
    }
  }
}

void tile4_neon(const std::int8_t* wb, const std::uint8_t* x, std::size_t x_stride,
                std::size_t kgroups, std::int32_t* acc) {
  accumulate_neon<4>(wb, x, x_stride, kgroups, acc);
}

void tile1_neon(const std::int8_t* wb, const std::uint8_t* x, std::size_t kgroups,
                std::int32_t* acc) {
  accumulate_neon<1>(wb, x, 0, kgroups, acc);
}

constexpr QGemmKernel kNeon{"neon", tile4_neon, tile1_neon};

}  // namespace

const QGemmKernel* qgemm_neon() { return &kNeon; }

}  // namespace mandipass::nn::detail

#else  // !NEON/aarch64 || MANDIPASS_FORCE_GENERIC_KERNELS

namespace mandipass::nn::detail {

const QGemmKernel* qgemm_neon() { return nullptr; }

}  // namespace mandipass::nn::detail

#endif
