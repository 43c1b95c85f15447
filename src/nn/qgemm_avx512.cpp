// AVX-512 VNNI int8 GEMM tier: one vpdpbusd per k-group per input
// vector covers all 16 output channels (64 weight bytes) at once. The
// instruction computes exact u8×s8 dot products accumulated into i32,
// so it is bit-identical to the generic tier by construction.
// mandilint: allow-file(expects-guard) -- pure kernel TU: total functions over
// caller-validated packed buffers; preconditions live in PackedQuantizedGemm.
#include "nn/qgemm_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512VNNI__) && \
    !defined(MANDIPASS_FORCE_GENERIC_KERNELS)

#include <immintrin.h>

#include <cstring>

namespace mandipass::nn::detail {
namespace {

template <std::size_t P>
inline void accumulate_vnni(const std::int8_t* wb, const std::uint8_t* x,
                            std::size_t x_stride, std::size_t kgroups,
                            std::int32_t* acc) {
  __m512i accv[P];
  for (std::size_t p = 0; p < P; ++p) accv[p] = _mm512_setzero_si512();
  for (std::size_t kg = 0; kg < kgroups; ++kg) {
    const __m512i w = _mm512_loadu_si512(wb + kg * kQGroupBytes);
    for (std::size_t p = 0; p < P; ++p) {
      std::uint32_t a32;
      std::memcpy(&a32, x + p * x_stride +
                            kg * kTapGroup,
                  sizeof(a32));
      accv[p] = _mm512_dpbusd_epi32(accv[p], _mm512_set1_epi32(static_cast<int>(a32)), w);
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    _mm512_storeu_si512(acc + p * kQOcBlock, accv[p]);
  }
}

void tile4_vnni(const std::int8_t* wb, const std::uint8_t* x, std::size_t x_stride,
                std::size_t kgroups, std::int32_t* acc) {
  accumulate_vnni<4>(wb, x, x_stride, kgroups, acc);
}

void tile1_vnni(const std::int8_t* wb, const std::uint8_t* x, std::size_t kgroups,
                std::int32_t* acc) {
  accumulate_vnni<1>(wb, x, 0, kgroups, acc);
}

constexpr QGemmKernel kVnni{"avx512vnni", tile4_vnni, tile1_vnni};

}  // namespace

const QGemmKernel* qgemm_avx512vnni() { return &kVnni; }

}  // namespace mandipass::nn::detail

#else  // !VNNI || MANDIPASS_FORCE_GENERIC_KERNELS

namespace mandipass::nn::detail {

const QGemmKernel* qgemm_avx512vnni() { return nullptr; }

}  // namespace mandipass::nn::detail

#endif
