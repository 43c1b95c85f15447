// Compiled inference path for the biometric extractor (DESIGN.md §13, §18).
//
// TiledExtractor is the one extraction path both precisions run: two
// compiled branch plans (nn::InferencePlan or nn::QuantizedInferencePlan)
// and the trunk Linear packed with the Sigmoid fused as its epilogue
// (nn::PackedGemm or nn::PackedQuantizedGemm). extract()/extract_batch()
// run end-to-end with every intermediate in a per-thread ScratchArena —
// zero heap allocations in the steady state, no Tensor plumbing, and
// input planes packed straight from the GradientArray slices. The
// template is defined, and instantiated for both precisions, in
// compiled_extractor.cpp only.
//
// CompiledExtractor is the float instance, built once from a trained
// BiometricExtractor. It is a snapshot of the source's weights and does
// not track later training: BiometricExtractor owns the invalidation
// (recompile after train-mode forward, backward or load) so callers of
// extract/extract_batch never observe a stale plan. The int8 instance
// lives in core::QuantizedExtractor.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/signal_array.h"
#include "nn/inference_plan.h"
#include "nn/linear.h"

namespace mandipass::core {

class BiometricExtractor;

template <typename BranchPlan, typename TrunkGemm>
class TiledExtractor {
 public:
  TiledExtractor() = default;
  /// Takes the compiled artifacts for input planes of (axes, half) floats;
  /// their shapes must chain (planes -> branch features -> trunk).
  TiledExtractor(std::size_t axes, std::size_t half, BranchPlan positive, BranchPlan negative,
                 TrunkGemm trunk);

  /// Embeds one gradient array. Bit-identical to extract_batch of the
  /// same sample (both run the same per-tile kernel).
  std::vector<float> extract(const GradientArray& array) const;

  /// Embeds every array; row i is the MandiblePrint of arrays[i]. Fans
  /// out in tiles of kSampleTile samples over the global thread pool with
  /// one ScratchArena per worker; the trunk GEMM streams its packed
  /// weights once per tile. Each output element is computed by exactly
  /// one thread in a tile-size-invariant order, so the result is
  /// bit-identical for any thread count and batch split.
  std::vector<std::vector<float>> extract_batch(std::span<const GradientArray> arrays) const;

  /// Samples per trunk-GEMM tile in extract_batch (bounds arena usage;
  /// has no effect on results).
  static constexpr std::size_t kSampleTile = 8;

  std::size_t axes() const noexcept { return axes_; }
  std::size_t half_length() const noexcept { return half_; }
  std::size_t embedding_dim() const noexcept { return trunk_.rows(); }
  /// Floats per branch input plane: axes * half_length.
  std::size_t plane_count() const noexcept { return axes_ * half_; }

 private:
  /// Embeds `count` arrays into `out`, which holds embedding_dim() rows
  /// of `count` floats (row r, sample p at out[r * count + p]). The
  /// caller resets `arena` and must hold its capability.
  void embed_tile(const GradientArray* arrays, std::size_t count, float* out,
                  nn::ScratchArena& arena) const MANDIPASS_REQUIRES(arena);

  std::size_t axes_ = 0;
  std::size_t half_ = 0;
  BranchPlan positive_;
  BranchPlan negative_;
  TrunkGemm trunk_;
};

extern template class TiledExtractor<nn::InferencePlan, nn::PackedGemm>;
extern template class TiledExtractor<nn::QuantizedInferencePlan, nn::PackedQuantizedGemm>;

/// The trunk's Linear layer; throws ShapeError unless the trunk is
/// Linear -> Sigmoid (the compiled trunk fuses the Sigmoid).
nn::Linear& trunk_linear(BiometricExtractor& source);

/// The float compiled extractor.
class CompiledExtractor : public TiledExtractor<nn::InferencePlan, nn::PackedGemm> {
 public:
  /// Folds and packs `source` (both branches + trunk) in its current
  /// state. The source is only read; it can keep training afterwards.
  explicit CompiledExtractor(BiometricExtractor& source);
};

}  // namespace mandipass::core
