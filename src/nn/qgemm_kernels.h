// Internal int8 GEMM kernel interface shared by the per-architecture
// translation units (qgemm_generic.cpp, qgemm_avx2.cpp, qgemm_avx512.cpp,
// qgemm_neon.cpp) and the quantized-plan driver (quantized_plan.cpp).
//
// The contract every tier implements (and the generic tier *defines*):
//
//   * weights are packed per 16-output-channel block in groups of
//     kTapGroup = 4 taps:
//       wb[(kg * 16 + j) * 4 + t] = Wq[block * 16 + j][kg * 4 + t]
//     with the tail k-group and tail rows zero-padded;
//   * activations are unsigned bytes in [0, 127] (7-bit affine
//     quantization — the headroom is what makes the AVX2
//     vpmaddubsw/vpmaddwd pair exact: |a*w| <= 127*127, so the i16
//     pair-sum never saturates);
//   * each tile function computes, for input vector p and channel j,
//       acc[p * 16 + j] = sum_k a_p[k] * w[j][k]
//     as an EXACT int32 sum. Integer addition is associative, so every
//     tier — VNNI vpdpbusd, AVX2 maddubs+maddwd, NEON vdot/vmull, plain
//     loops — produces bit-identical accumulators for any reordering.
//     The float dequantization lives in the single driver TU, so the
//     full output is bit-identical across tiers.
//
// A tier's accessor returns nullptr when the architecture (or
// MANDIPASS_FORCE_GENERIC_KERNELS) rules it out; the driver probes them
// in preference order and tests iterate every non-null tier against the
// generic contract.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mandipass::nn::detail {

/// int8 taps consumed per dot-product step (one vpdpbusd / vdot lane).
inline constexpr std::size_t kTapGroup = 4;
/// Output channels per packed block (matches PackedGemm::kOcBlock).
inline constexpr std::size_t kQOcBlock = 16;
/// Bytes per packed k-group block row: kQOcBlock * kTapGroup.
inline constexpr std::size_t kQGroupBytes = kQOcBlock * kTapGroup;

/// One kernel tier. tile4 processes 4 input vectors against one packed
/// 16-channel block; tile1 one vector (the x-tile remainder). Both write
/// all their acc entries (no accumulation across calls). `x_stride` is
/// the byte distance between consecutive quantized input vectors.
struct QGemmKernel {
  const char* name;
  void (*tile4)(const std::int8_t* wb, const std::uint8_t* x, std::size_t x_stride,
                std::size_t kgroups, std::int32_t* acc);
  void (*tile1)(const std::int8_t* wb, const std::uint8_t* x, std::size_t kgroups,
                std::int32_t* acc);
};

/// Always available; defines the accumulator contract.
const QGemmKernel* qgemm_generic();
/// AVX2 vpmaddubsw + vpmaddwd tier; nullptr when not compiled in.
const QGemmKernel* qgemm_avx2();
/// AVX-512 VNNI vpdpbusd tier; nullptr when not compiled in.
const QGemmKernel* qgemm_avx512vnni();
/// NEON vdotq_s32 (vmull_s8 pre-dotprod) tier; nullptr when not compiled in.
const QGemmKernel* qgemm_neon();

}  // namespace mandipass::nn::detail
