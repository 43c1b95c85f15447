// AVX2 int8 GEMM tier: vpmaddubsw (u8×s8 → i16 pairs) + vpmaddwd
// (i16 pairs → i32). Activations are capped at 127 by the quantizer, so
// the vpmaddubsw pair-sum is bounded by 2·127·127 = 32258 < 32767 and
// never saturates — the i32 accumulators are exact and bit-identical to
// the generic tier.
// mandilint: allow-file(expects-guard) -- pure kernel TU: total functions over
// caller-validated packed buffers; preconditions live in PackedQuantizedGemm.
#include "nn/qgemm_kernels.h"

#if defined(__AVX2__) && !defined(MANDIPASS_FORCE_GENERIC_KERNELS)

#include <immintrin.h>

#include <cstring>

namespace mandipass::nn::detail {
namespace {

// One packed k-group holds 16 channels × 4 taps = 64 weight bytes; the
// 256-bit path processes them as two 32-byte halves (channels 0–7 and
// 8–15), each half four channels' taps per 128-bit lane... laid out so
// that vpmaddubsw's pair structure lines up with the taps-major packing:
// byte i of the half belongs to channel i/4, tap i%4.
template <std::size_t P>
inline void accumulate_avx2(const std::int8_t* wb, const std::uint8_t* x,
                            std::size_t x_stride, std::size_t kgroups,
                            std::int32_t* acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc_lo[P];
  __m256i acc_hi[P];
  for (std::size_t p = 0; p < P; ++p) {
    acc_lo[p] = _mm256_setzero_si256();
    acc_hi[p] = _mm256_setzero_si256();
  }
  for (std::size_t kg = 0; kg < kgroups; ++kg) {
    const std::int8_t* wg = wb + kg * kQGroupBytes;
    const __m256i w_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wg));
    const __m256i w_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wg + 32));
    for (std::size_t p = 0; p < P; ++p) {
      std::uint32_t a32;
      std::memcpy(&a32, x + p * x_stride +
                            kg * kTapGroup,
                  sizeof(a32));
      const __m256i a = _mm256_set1_epi32(static_cast<int>(a32));
      // u8 activations (first operand) × s8 weights → i16 pair sums.
      const __m256i p_lo = _mm256_maddubs_epi16(a, w_lo);
      const __m256i p_hi = _mm256_maddubs_epi16(a, w_hi);
      acc_lo[p] = _mm256_add_epi32(acc_lo[p], _mm256_madd_epi16(p_lo, ones));
      acc_hi[p] = _mm256_add_epi32(acc_hi[p], _mm256_madd_epi16(p_hi, ones));
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(acc + p * kQOcBlock),
        acc_lo[p]);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(acc + p * kQOcBlock + 8),
        acc_hi[p]);
  }
}

void tile4_avx2(const std::int8_t* wb, const std::uint8_t* x, std::size_t x_stride,
                std::size_t kgroups, std::int32_t* acc) {
  accumulate_avx2<4>(wb, x, x_stride, kgroups, acc);
}

void tile1_avx2(const std::int8_t* wb, const std::uint8_t* x, std::size_t kgroups,
                std::int32_t* acc) {
  accumulate_avx2<1>(wb, x, 0, kgroups, acc);
}

constexpr QGemmKernel kAvx2{"avx2", tile4_avx2, tile1_avx2};

}  // namespace

const QGemmKernel* qgemm_avx2() { return &kAvx2; }

}  // namespace mandipass::nn::detail

#else  // !__AVX2__ || MANDIPASS_FORCE_GENERIC_KERNELS

namespace mandipass::nn::detail {

const QGemmKernel* qgemm_avx2() { return nullptr; }

}  // namespace mandipass::nn::detail

#endif
