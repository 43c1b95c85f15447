// Generic int8 GEMM tier — plain int32 loops over the packed layout.
// This TU *defines* the accumulator contract the SIMD tiers must match
// bit-for-bit; it is always compiled in and is the active tier when
// MANDIPASS_FORCE_GENERIC_KERNELS is set or no SIMD tier applies.
// mandilint: allow-file(expects-guard) -- pure kernel TU: total functions over
// caller-validated packed buffers; preconditions live in PackedQuantizedGemm.
#include "nn/qgemm_kernels.h"

namespace mandipass::nn::detail {
namespace {

inline void accumulate_one(const std::int8_t* wb, const std::uint8_t* x,
                           std::size_t kgroups, std::int32_t* acc) {
  for (std::size_t j = 0; j < kQOcBlock; ++j) acc[j] = 0;
  for (std::size_t kg = 0; kg < kgroups; ++kg) {
    const std::int8_t* wg = wb + kg * kQGroupBytes;
    const std::uint8_t* xg = x + kg * kTapGroup;
    for (std::size_t j = 0; j < kQOcBlock; ++j) {
      std::int32_t sum = 0;
      for (std::size_t t = 0; t < kTapGroup; ++t) {
        sum += static_cast<std::int32_t>(xg[t]) *
               static_cast<std::int32_t>(wg[j * kTapGroup + t]);
      }
      acc[j] += sum;
    }
  }
}

void tile4_generic(const std::int8_t* wb, const std::uint8_t* x, std::size_t x_stride,
                   std::size_t kgroups, std::int32_t* acc) {
  for (std::size_t p = 0; p < 4; ++p) {
    accumulate_one(wb, x + p * x_stride, kgroups, acc + p * kQOcBlock);
  }
}

void tile1_generic(const std::int8_t* wb, const std::uint8_t* x, std::size_t kgroups,
                   std::int32_t* acc) {
  accumulate_one(wb, x, kgroups, acc);
}

constexpr QGemmKernel kGeneric{"generic", tile4_generic, tile1_generic};

}  // namespace

const QGemmKernel* qgemm_generic() { return &kGeneric; }

}  // namespace mandipass::nn::detail
