// Int8 compiled-plan driver (DESIGN.md §18): activation quantization,
// tier dispatch, exact int32 accumulation via qgemm_*.cpp, and the
// float dequantizing epilogue. Everything float-sensitive lives in this
// single TU, so outputs do not depend on which kernel tier ran.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "nn/inference_plan.h"
#include "nn/qgemm_kernels.h"

namespace mandipass::nn {

namespace {

// Dispatch preference: exact integer kernels are interchangeable, so
// order is purely by throughput. The generic tier is always last and
// always present.
const std::vector<const detail::QGemmKernel*>& kernel_registry() {
  static const std::vector<const detail::QGemmKernel*> tiers = [] {
    std::vector<const detail::QGemmKernel*> t;
    for (const detail::QGemmKernel* k :
         {detail::qgemm_avx512vnni(), detail::qgemm_neon(), detail::qgemm_avx2(),
          detail::qgemm_generic()}) {
      if (k != nullptr) {
        t.push_back(k);
      }
    }
    return t;
  }();
  return tiers;
}

inline float apply_epilogue(float v, Epilogue e) {
  switch (e) {
    case Epilogue::Relu:
      return v > 0.0f ? v : 0.0f;
    case Epilogue::Sigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case Epilogue::None:
      break;
  }
  return v;
}

// Quantizes one input vector to 7-bit unsigned [0, 127] with a
// per-vector affine (scale, zero-point). The range always includes 0,
// so zp = q(0) exactly and an all-zero (or constant-zero-range) vector
// degenerates to ascale = 0 / all-zero bytes — which dequantizes to
// bias passthrough. Capping at 127 instead of 255 costs one bit of
// resolution but buys cross-tier exactness: u8xs8 products stay within
// 127*127, so the AVX2 vpmaddubsw i16 pair-sums cannot saturate.
//
// Per *vector* (not per tile or per batch) granularity is what makes
// plan outputs independent of how callers group inputs.
inline void quantize_vector(const float* x, std::size_t cols, std::size_t padded_cols,
                            std::uint8_t* out, float* ascale, float* zero_point) {
  float lo = 0.0f;
  float hi = 0.0f;
  for (std::size_t k = 0; k < cols; ++k) {
    lo = std::min(lo, x[k]);
    hi = std::max(hi, x[k]);
  }
  const float range = hi - lo;
  if (!(range > 0.0f)) {
    std::memset(out, 0, padded_cols);
    *ascale = 0.0f;
    *zero_point = 0.0f;
    return;
  }
  const float inv = 127.0f / range;
  // zp in [0, 127] by construction: lo <= 0 <= hi, so 0 <= -lo <= range.
  const float zpf = std::nearbyintf(-lo * inv);
  for (std::size_t k = 0; k < cols; ++k) {
    // Clamp first, then round half-up by truncating t + 0.5: t is in
    // [0, 127], so t + 0.5 truncates to the nearest integer in [0, 127].
    // Plain float ops keep this loop off libm (std::lround here costs
    // more than the integer GEMM it feeds).
    float t = x[k] * inv + zpf;
    t = t < 0.0f ? 0.0f : (t > 127.0f ? 127.0f : t);
    out[k] = static_cast<std::uint8_t>(t + 0.5f);
  }
  std::memset(out + cols, 0, padded_cols - cols);
  *ascale = range / 127.0f;
  *zero_point = zpf;
}

}  // namespace

std::vector<const char*> quantized_kernel_tiers() {
  std::vector<const char*> names;
  for (const detail::QGemmKernel* k : kernel_registry()) {
    names.push_back(k->name);
  }
  return names;
}

const char* active_quantized_kernel() { return kernel_registry().front()->name; }

void PackedQuantizedGemm::pack_rows(const QuantizedMatrix& q, const float* bias) {
  MANDIPASS_EXPECTS(q.rows > 0 && q.cols > 0);
  MANDIPASS_EXPECTS(q.values.size() == q.rows * q.cols && q.scales.size() == q.rows);
  // Exactness bound: |acc - zp*rowsum| <= 2 * 127 * 127 * cols must fit
  // int32, with a wide margin kept for future layout changes.
  MANDIPASS_EXPECTS(q.cols <= 65536);
  rows_ = q.rows;
  cols_ = q.cols;
  kgroups_ = (cols_ + kTapGroup - 1) / kTapGroup;
  const std::size_t blocks = (rows_ + kOcBlock - 1) / kOcBlock;
  weights_.assign(blocks * kgroups_ * detail::kQGroupBytes, 0);
  scales_.assign(blocks * kOcBlock, 0.0f);
  row_sums_.assign(blocks * kOcBlock, 0);
  bias_.assign(blocks * kOcBlock, 0.0f);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t blk = r / kOcBlock;
    const std::size_t j = r % kOcBlock;
    std::int8_t* wb = weights_.data() + blk * kgroups_ * detail::kQGroupBytes;
    std::int32_t sum = 0;
    for (std::size_t k = 0; k < cols_; ++k) {
      const std::int8_t w = q.values[r * cols_ + k];
      const std::size_t kg = k / kTapGroup;
      const std::size_t t = k % kTapGroup;
      wb[(kg * kOcBlock + j) * kTapGroup + t] = w;
      sum += w;
    }
    scales_[r] = q.scales[r];
    row_sums_[r] = sum;
    if (bias != nullptr) {
      bias_[r] = bias[r];
    }
  }
}

namespace {

// Tile loop over already-quantized vectors. `ascale`/`zero_point` are
// indexed with `az_stride` — 1 for the per-vector run() path, 0 when one
// shared affine covers the whole input (run_prequantized). The integer
// accumulators are tier-supplied and exact; the dequantization below is
// the only float arithmetic and is identical for every tier, so full
// outputs are bit-identical across tiers.
void run_tiles(const detail::QGemmKernel& kernel, const std::int8_t* weights,
               const float* scales, const std::int32_t* row_sums, const float* bias,
               std::size_t rows, std::size_t kgroups, const std::uint8_t* qa,
               std::size_t x_count, const float* ascale, const float* zero_point,
               std::size_t az_stride, float* y, std::size_t y_stride, Epilogue epilogue) {
  constexpr std::size_t kOcBlock = PackedQuantizedGemm::kOcBlock;
  constexpr std::size_t kXTile = PackedQuantizedGemm::kXTile;
  const std::size_t padded_cols = kgroups * PackedQuantizedGemm::kTapGroup;
  const std::size_t blocks = (rows + kOcBlock - 1) / kOcBlock;
  std::int32_t acc[kXTile * kOcBlock];
  const auto store = [&](std::size_t blk, std::size_t xi, std::size_t tile) {
    const std::size_t base = blk * kOcBlock;
    const std::size_t lim = std::min(kOcBlock, rows - base);
    for (std::size_t j = 0; j < lim; ++j) {
      const std::size_t r = base + j;
      for (std::size_t p = 0; p < tile; ++p) {
        const std::size_t az = (xi + p) * az_stride;
        const std::int32_t zp = static_cast<std::int32_t>(zero_point[az]);
        const std::int32_t centered = acc[p * kOcBlock + j] - zp * row_sums[r];
        const float v = static_cast<float>(centered) * (ascale[az] * scales[r]) + bias[r];
        y[r * y_stride + xi + p] = apply_epilogue(v, epilogue);
      }
    }
  };
  std::size_t xi = 0;
  for (; xi + kXTile <= x_count; xi += kXTile) {
    const std::uint8_t* xt = qa + xi * padded_cols;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      kernel.tile4(weights + blk * kgroups * detail::kQGroupBytes, xt, padded_cols,
                   kgroups, acc);
      store(blk, xi, kXTile);
    }
  }
  for (; xi < x_count; ++xi) {
    const std::uint8_t* xt = qa + xi * padded_cols;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      kernel.tile1(weights + blk * kgroups * detail::kQGroupBytes, xt, kgroups, acc);
      store(blk, xi, 1);
    }
  }
}

// run()/run_tier() driver: quantize every input vector independently
// (per-vector affine — what makes the float-input entry points
// independent of how callers group inputs), then run the tile loop.
void run_quantized(const detail::QGemmKernel& kernel, const std::int8_t* weights,
                   const float* scales, const std::int32_t* row_sums, const float* bias,
                   std::size_t rows, std::size_t cols, std::size_t kgroups, const float* x,
                   std::size_t x_count, std::size_t x_stride, float* y,
                   std::size_t y_stride, Epilogue epilogue, ScratchArena& arena) {
  const std::size_t padded_cols = kgroups * PackedQuantizedGemm::kTapGroup;
  // Arena storage is float-granular; quantized bytes borrow it via
  // unsigned char, which may alias anything.
  const std::size_t qa_floats = (x_count * padded_cols + sizeof(float) - 1) / sizeof(float);
  auto* qa = reinterpret_cast<std::uint8_t*>(arena.alloc(qa_floats));
  float* ascale = arena.alloc(x_count);
  float* zero_point = arena.alloc(x_count);
  for (std::size_t xi = 0; xi < x_count; ++xi) {
    quantize_vector(x + xi * x_stride, cols, padded_cols, qa + xi * padded_cols,
                    ascale + xi, zero_point + xi);
  }
  run_tiles(kernel, weights, scales, row_sums, bias, rows, kgroups, qa, x_count, ascale,
            zero_point, 1, y, y_stride, epilogue);
}

}  // namespace

void PackedQuantizedGemm::run(const float* x, std::size_t x_count, std::size_t x_stride,
                              float* y, std::size_t y_stride, Epilogue epilogue,
                              ScratchArena& arena) const {
  MANDIPASS_EXPECTS(!empty());
  run_quantized(*kernel_registry().front(), weights_.data(), scales_.data(),
                row_sums_.data(), bias_.data(), rows_, cols_, kgroups_, x, x_count,
                x_stride, y, y_stride, epilogue, arena);
}

void PackedQuantizedGemm::run_prequantized(const std::uint8_t* qx, std::size_t x_count,
                                           float ascale, float zero_point, float* y,
                                           std::size_t y_stride, Epilogue epilogue) const {
  MANDIPASS_EXPECTS(!empty());
  run_tiles(*kernel_registry().front(), weights_.data(), scales_.data(), row_sums_.data(),
            bias_.data(), rows_, kgroups_, qx, x_count, &ascale, &zero_point, 0, y,
            y_stride, epilogue);
}

bool PackedQuantizedGemm::run_tier(const char* tier, const float* x, std::size_t x_count,
                                   std::size_t x_stride, float* y, std::size_t y_stride,
                                   Epilogue epilogue, ScratchArena& arena) const {
  MANDIPASS_EXPECTS(!empty());
  for (const detail::QGemmKernel* k : kernel_registry()) {
    if (std::strcmp(k->name, tier) == 0) {
      run_quantized(*k, weights_.data(), scales_.data(), row_sums_.data(), bias_.data(),
                    rows_, cols_, kgroups_, x, x_count, x_stride, y, y_stride, epilogue,
                    arena);
      return true;
    }
  }
  return false;
}

QuantizedInferencePlan QuantizedInferencePlan::compile(std::span<const FoldedConv> blocks,
                                                       std::size_t h_in, std::size_t w_in) {
  QuantizedInferencePlan plan;
  for (const FoldedConv& block : blocks) {
    Stage& stage = plan.stages_.emplace_back(block.config, h_in, w_in);
    MANDIPASS_EXPECTS(block.weights.rank() == 2 && block.weights.dim(0) == stage.out_channels &&
                      block.weights.dim(1) == stage.taps &&
                      block.bias.size() == stage.out_channels);
    stage.gemm.pack_rows(quantize_rows(block.weights), block.bias.data());
    h_in = stage.h_out;
    w_in = stage.w_out;
  }
  return plan;
}

void QuantizedInferencePlan::run(const float* plane, float* out, ScratchArena& arena) const {
  MANDIPASS_EXPECTS(!stages_.empty());
  const float* cur = plane;
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    const Stage& s = stages_[si];
    // Quantize the stage's input plane ONCE (one affine per plane), then
    // gather im2col patches directly as bytes. im2col duplicates each
    // input element into up to kernel_h*kernel_w patches, so quantizing
    // before the gather does ~9x less rounding work than quantizing each
    // patch — and the plan stays per-sample deterministic, so batch /
    // thread bit-identity is unaffected. A padding tap gathers the
    // zero-point byte, which dequantizes to exactly 0 (the affine range
    // always includes 0).
    const std::size_t plane_count = s.input_count();
    auto* qplane = reinterpret_cast<std::uint8_t*>(
        arena.alloc((plane_count + sizeof(float) - 1) / sizeof(float)));
    float ascale = 0.0f;
    float zpf = 0.0f;
    quantize_vector(cur, plane_count, plane_count, qplane, &ascale, &zpf);
    const auto zp_byte = static_cast<std::uint8_t>(zpf);

    const std::size_t padded_taps =
        (s.taps + PackedQuantizedGemm::kTapGroup - 1) / PackedQuantizedGemm::kTapGroup *
        PackedQuantizedGemm::kTapGroup;
    auto* patches = reinterpret_cast<std::uint8_t*>(
        arena.alloc((s.positions * padded_taps + sizeof(float) - 1) / sizeof(float)));
    const std::ptrdiff_t* idx = s.patch_index.data();
    for (std::size_t pos = 0; pos < s.positions; ++pos) {
      std::uint8_t* dst = patches + pos * padded_taps;
      const std::ptrdiff_t* src = idx + pos * s.taps;
      for (std::size_t t = 0; t < s.taps; ++t) {
        dst[t] = src[t] >= 0 ? qplane[src[t]] : zp_byte;
      }
      // Group-padding taps meet zero weights, but give them a fixed
      // value anyway so the accumulators never read indeterminate bytes.
      std::memset(dst + s.taps, 0, padded_taps - s.taps);
    }
    float* next = si + 1 == stages_.size() ? out : arena.alloc(s.output_count());
    s.gemm.run_prequantized(patches, s.positions, ascale, zpf, next, s.positions,
                            Epilogue::Relu);
    cur = next;
  }
}

}  // namespace mandipass::nn
