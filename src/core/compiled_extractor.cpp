#include "core/compiled_extractor.h"

#include <algorithm>
#include <type_traits>

#include "common/error.h"
#include "common/obs.h"
#include "common/thread_pool.h"
#include "core/extractor.h"
#include "nn/layers.h"
#include "nn/sequential.h"

namespace mandipass::core {

namespace {

/// The int8 instance reports under nn.qplan.*, the float one under nn.plan.*.
template <typename TrunkGemm>
constexpr bool kInt8 = std::is_same_v<TrunkGemm, nn::PackedQuantizedGemm>;

}  // namespace

template <typename BranchPlan, typename TrunkGemm>
TiledExtractor<BranchPlan, TrunkGemm>::TiledExtractor(std::size_t axes, std::size_t half,
                                                      BranchPlan positive, BranchPlan negative,
                                                      TrunkGemm trunk)
    : axes_(axes),
      half_(half),
      positive_(std::move(positive)),
      negative_(std::move(negative)),
      trunk_(std::move(trunk)) {
  MANDIPASS_EXPECTS(positive_.input_count() == plane_count() &&
                    negative_.input_count() == plane_count());
  MANDIPASS_EXPECTS(positive_.feature_count() == negative_.feature_count());
  MANDIPASS_EXPECTS(trunk_.cols() == 2 * positive_.feature_count());
}

template <typename BranchPlan, typename TrunkGemm>
void TiledExtractor<BranchPlan, TrunkGemm>::embed_tile(const GradientArray* arrays,
                                                       std::size_t count, float* out,
                                                       nn::ScratchArena& arena) const {
  const std::size_t flat = positive_.feature_count();
  float* concat = arena.alloc(count * 2 * flat);
  for (std::size_t p = 0; p < count; ++p) {
    float* pos_plane = arena.alloc(plane_count());
    float* neg_plane = arena.alloc(plane_count());
    pack_plane(arrays[p].positive, axes_, half_, pos_plane);
    pack_plane(arrays[p].negative, axes_, half_, neg_plane);
    float* c = concat + p * 2 * flat;
    positive_.run(pos_plane, c, arena);
    negative_.run(neg_plane, c + flat, arena);
  }
  if constexpr (kInt8<TrunkGemm>) {
    trunk_.run(concat, count, 2 * flat, out, count, nn::Epilogue::Sigmoid, arena);
  } else {
    trunk_.run(concat, count, 2 * flat, out, count, nn::Epilogue::Sigmoid);
  }
  MANDIPASS_OBS_COUNT_N(kInt8<TrunkGemm> ? "nn.qplan.fused_forwards" : "nn.plan.fused_forwards",
                        count);
}

template <typename BranchPlan, typename TrunkGemm>
std::vector<float> TiledExtractor<BranchPlan, TrunkGemm>::extract(
    const GradientArray& array) const {
  expect_branch_shape(array, axes_, half_);
  nn::ScratchArena& arena = nn::thread_scratch_arena();
  arena.assert_owner();  // thread_local, so trivially ours; claims the capability
  arena.reset();
  // A one-sample tile's (embedding_dim, 1) output is the embedding itself.
  std::vector<float> out(embedding_dim());
  embed_tile(&array, 1, out.data(), arena);
  return out;
}

template <typename BranchPlan, typename TrunkGemm>
std::vector<std::vector<float>> TiledExtractor<BranchPlan, TrunkGemm>::extract_batch(
    std::span<const GradientArray> arrays) const {
  // Validate up front, on the caller: precondition failures must not fire
  // on pool workers mid-batch.
  for (const GradientArray& a : arrays) {
    expect_branch_shape(a, axes_, half_);
  }
  std::vector<std::vector<float>> out(arrays.size());
  const std::size_t dim = embedding_dim();
  // Samples are processed in tiles of kSampleTile: the tile's branch
  // features are gathered into one concat matrix, then a single trunk
  // GEMM streams the (large) packed trunk weights once per tile instead
  // of once per sample — the trunk is memory-bound, so this amortization
  // is where most of the batch throughput comes from. Per output element
  // the arithmetic is tile-size-invariant (ascending-k float accumulation;
  // per-vector int8 activation quantization), so results stay
  // bit-identical to extract() and to any other batch/thread split.
  common::parallel_for(0, arrays.size(), kSampleTile, [&](std::size_t lo, std::size_t hi) {
    nn::ScratchArena& arena = nn::thread_scratch_arena();
    arena.assert_owner();  // this worker's own arena; claims the capability
    for (std::size_t base = lo; base < hi; base += kSampleTile) {
      const std::size_t count = std::min(kSampleTile, hi - base);
      arena.reset();
      float* tile_out = arena.alloc(dim * count);
      embed_tile(arrays.data() + base, count, tile_out, arena);
      for (std::size_t p = 0; p < count; ++p) {
        out[base + p].resize(dim);
        for (std::size_t r = 0; r < dim; ++r) {
          out[base + p][r] = tile_out[r * count + p];
        }
      }
    }
  });
  MANDIPASS_OBS_GAUGE_SET(kInt8<TrunkGemm> ? "nn.qplan.bytes_arena" : "nn.plan.bytes_arena",
                          nn::thread_scratch_arena().capacity_bytes());
  return out;
}

template class TiledExtractor<nn::InferencePlan, nn::PackedGemm>;
template class TiledExtractor<nn::QuantizedInferencePlan, nn::PackedQuantizedGemm>;

nn::Linear& trunk_linear(BiometricExtractor& source) {
  nn::Sequential& trunk = source.trunk();
  auto* linear = trunk.layer_count() == 2 ? dynamic_cast<nn::Linear*>(&trunk.layer(0)) : nullptr;
  if (linear == nullptr || dynamic_cast<nn::Sigmoid*>(&trunk.layer(1)) == nullptr) {
    throw ShapeError(  // mandilint: allow(no-throw-in-datapath) -- deploy-time model compilation
        "compiled extractors expect a Linear -> Sigmoid trunk");
  }
  return *linear;
}

namespace {

TiledExtractor<nn::InferencePlan, nn::PackedGemm> compile_float(BiometricExtractor& source) {
  MANDIPASS_OBS_TRACE(trace_compile, "nn.plan.compile_us");
  const std::size_t axes = source.config().axes;
  const std::size_t half = source.config().half_length;
  nn::Linear& fc = trunk_linear(source);
  const std::vector<nn::Param*> lp = fc.params();
  nn::PackedGemm trunk;
  trunk.pack_rows(lp[0]->value.data(), lp[1]->value.data(), fc.out_features(),
                  fc.in_features());
  return {axes, half, nn::InferencePlan::compile(source.branch_positive(), axes, half),
          nn::InferencePlan::compile(source.branch_negative(), axes, half), std::move(trunk)};
}

}  // namespace

CompiledExtractor::CompiledExtractor(BiometricExtractor& source)
    : TiledExtractor(compile_float(source)) {}

}  // namespace mandipass::core
