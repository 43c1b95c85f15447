// Compiled inference plans: fused Conv+BN+ReLU stages, packed
// register-blocked GEMM kernels, and an allocation-free scratch arena
// (DESIGN.md §13, §18).
//
// The training stack (Conv2d / BatchNorm2d / ReLU as separate layers,
// one freshly allocated Tensor per layer output) is the *reference*
// implementation: auditable, differentiable, and bit-stable. Inference
// never needs that generality — the branch topology is frozen, BatchNorm
// runs off its running statistics, and nothing is kept for a backward
// pass. A branch is compiled once, after training, and both precisions
// share every step but the GEMM:
//
//   * fold_branch() checks the [Conv2d, BatchNorm2d, ReLU] x N
//     (+ Flatten) layout and folds each BatchNorm2d's affine, with its
//     own eps, into the preceding Conv2d's weights and bias
//     (w' = w * gamma/sqrt(var+eps),
//     b' = (b - mean) * gamma/sqrt(var+eps) + beta); the ReLU becomes a
//     GEMM epilogue — one pass per conv block instead of three;
//   * each folded block becomes a ConvStage: its ConvGeometry (extents
//     and im2col gather index, from the block's own Conv2dConfig) plus
//     the folded weights packed for one precision's GEMM — PackedGemm
//     for the float InferencePlan, PackedQuantizedGemm for the int8
//     QuantizedInferencePlan;
//   * every intermediate (im2col patches, activations) lives in a
//     ScratchArena that is reset — not freed — between samples, so the
//     steady state performs zero heap allocations.
//
// Float numerics: the folded weights are pre-packed taps-major in blocks
// of kOcBlock output channels and multiplied against a tile of kXTile
// patch rows at a time (explicit AVX-512 / AVX2 kernels); within one
// output element the accumulation order over taps is the same ascending
// order the reference GEMM uses, so the only drift versus the reference
// path is the BN folding itself (and FMA contraction), bounded in
// practice well under the documented 1e-5 max-abs embedding tolerance.
// Each sample is computed independently and serially, so results are
// bit-identical for any thread count and for single- vs batched
// extraction.
//
// Int8 numerics: each folded weight matrix is quantized per-row to int8
// and pre-packed in 16-channel blocks of 4-tap groups for the integer
// dot-product kernels (qgemm_*.cpp: AVX-512 VNNI vpdpbusd, AVX2
// vpmaddubsw+vpmaddwd, NEON vdotq_s32, and a generic contract-defining
// fallback). Activations are quantized per input vector to 7-bit
// unsigned [0, 127] — per *vector*, not per tile, so results are
// independent of batching; 7-bit, so the AVX2 i16 pair-sums cannot
// saturate and every tier's int32 accumulators are exact and
// bit-identical. Dequantization and the fused ReLU/Sigmoid epilogue run
// in float in one shared driver (quantized_plan.cpp), so full outputs —
// not just accumulators — match across tiers bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "nn/conv2d.h"
#include "nn/quantize.h"
#include "nn/tensor.h"

namespace mandipass::nn {

class Sequential;

/// Bump allocator for per-forward intermediates. alloc() hands out
/// uninitialised float storage from a list of fixed blocks; reset()
/// rewinds every block without releasing memory, so after a warm-up pass
/// with a given allocation pattern no further heap traffic occurs.
/// Pointers stay valid from their alloc() until the next reset() (blocks
/// are never reallocated in place).
///
/// Not thread-safe by design: an arena is a *thread-confined capability*
/// — use one arena per thread (see thread_scratch_arena()). The contract
/// is enforced twice over:
///   * statically, the class is a MANDIPASS_CAPABILITY and the mutating
///     entry points MANDIPASS_REQUIRES(this); callers vouch for
///     confinement with assert_owner(), so a path that passes an arena
///     across threads without re-asserting fails the tsafety build;
///   * dynamically, assert_owner() binds the arena to the first calling
///     thread and MANDIPASS_EXPECTS-fails on any other thread.
/// mandilint's arena-escape rule additionally rejects storing arena
/// pointers in members, returning them, or capturing them in detached
/// lambdas.
class MANDIPASS_CAPABILITY("arena") ScratchArena {
 public:
  /// Binds the arena to the calling thread on first use; precondition
  /// failure if any other thread touches it afterwards. Calling this is
  /// how a scope takes ownership of the capability for the analysis.
  void assert_owner() const MANDIPASS_ASSERT_CAPABILITY(this);

  /// Uninitialised storage for `count` floats (the caller must write
  /// every element it reads back). count == 0 returns a valid pointer.
  float* alloc(std::size_t count) MANDIPASS_REQUIRES(this);

  /// Rewinds every block; capacity is retained. Not noexcept: the owner
  /// check throws on cross-thread misuse.
  void reset() MANDIPASS_REQUIRES(this);

  /// Total reserved storage across blocks, in bytes.
  std::size_t capacity_bytes() const noexcept;

  std::size_t block_count() const noexcept { return blocks_.size(); }

 private:
  struct Block {
    std::vector<float> data;
    std::size_t used = 0;
  };

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  ///< index of the block alloc() tries first
  /// Owning thread, bound by the first assert_owner()/alloc()/reset().
  /// mutable + default id{}: a freshly constructed arena is unowned and
  /// adoptable by whichever thread touches it first.
  mutable std::thread::id owner_;
};

/// The calling thread's arena, created on first use and reused (reset,
/// never freed) by every compiled-plan forward on that thread.
ScratchArena& thread_scratch_arena();

/// GEMM epilogue applied to each output element before the store.
enum class Epilogue : std::uint8_t { None, Relu, Sigmoid };

/// A (rows x cols) weight matrix pre-packed for the register-blocked
/// kernel: output rows are grouped in blocks of kOcBlock, and within a
/// block the storage is taps-major —
/// packed[(block * cols + k) * kOcBlock + j] = W[block * kOcBlock + j][k]
/// — so the inner loop over k broadcasts x[k] against kOcBlock
/// contiguous weights while the accumulators stay in registers.
///
/// run() multiplies a *batch* of input vectors (e.g. all im2col patch
/// rows of a conv stage) in tiles of kXTile vectors: one packed weight
/// vector load is reused across the tile, which is what lifts the kernel
/// off the 2-loads-per-FMA bound a plain matrix-vector dot sits on.
/// Tail blocks are zero-padded; per-element accumulation order over k is
/// the ascending order of the reference dot product, for every tile
/// shape, so results are independent of how inputs are batched.
class PackedGemm {
 public:
  static constexpr std::size_t kOcBlock = 16;  ///< one AVX-512 lane / two AVX2 lanes
  static constexpr std::size_t kXTile = 4;     ///< input vectors per weight stream

  PackedGemm() = default;

  /// Packs from row-major `w` of shape (rows, cols); `bias` has `rows`
  /// entries or is nullptr for an all-zero bias.
  void pack_rows(const float* w, const float* bias, std::size_t rows, std::size_t cols);

  /// Sizes the packed buffers for a (rows, cols) matrix with every weight
  /// and bias zero, to be filled in place with write_column(). The weights
  /// go into `storage` when it has more capacity than the current buffer,
  /// so a buffer taken from a discarded GEMM (release_weights) of the
  /// same shape is refilled without an allocation.
  void reset(std::size_t rows, std::size_t cols, std::vector<float> storage = {});

  /// Moves the packed weight buffer out and leaves the GEMM empty, for an
  /// owner about to discard it that wants the buffer for another reset().
  std::vector<float> release_weights() noexcept;

  /// Writes column c of W in place: W[r][c] = column[r] for r < rows().
  /// Column c of W is row c of a right-multiplication operand (x' = x * G
  /// packs W = G^T), so such an operand is packed row by row as it is
  /// generated, with no row-major copy and no transpose pass. Each block
  /// of kOcBlock rows is one contiguous run of the packed buffer and is
  /// copied as one. Distinct columns occupy disjoint floats, so threads
  /// may write distinct columns of one matrix concurrently.
  /// Precondition: c < cols() and column.size() == rows().
  void write_column(std::size_t c, std::span<const float> column);

  /// For every input vector xi in [0, x_count) and output row r:
  ///   y[r * y_stride + xi] =
  ///       epilogue(bias[r] + sum_k W[r][k] * x[xi * x_stride + k]).
  /// Each input vector holds cols() floats. For a conv stage, x = the
  /// im2col patch matrix (x_count = positions, x_stride = taps) and
  /// y_stride = positions, which lands the output directly in (C, H, W)
  /// order.
  void run(const float* x, std::size_t x_count, std::size_t x_stride, float* y,
           std::size_t y_stride, Epilogue epilogue) const;

  /// Single-vector convenience: y[r * y_stride] = epilogue(W x + b)[r].
  void run(const float* x, float* y, std::size_t y_stride, Epilogue epilogue) const {
    run(x, 1, cols_, y, y_stride, epilogue);
  }

  /// Like run(), but with the output transposed to x-major layout:
  ///   y[xi * y_stride + r] =
  ///       epilogue(bias[r] + sum_k W[r][k] * x[xi * x_stride + k]),
  /// so each input vector's full result is contiguous. This is the layout
  /// batched verification wants — one coalesced call over many probes,
  /// each probe's transformed vector handed onward as a contiguous span.
  /// The arithmetic is shared with run() (same kernels, same ascending-k
  /// accumulation); only the store indexing differs, so for every (r, xi)
  /// the value is bit-identical to run()'s and to a x_count==1 call.
  void run_xmajor(const float* x, std::size_t x_count, std::size_t x_stride, float* y,
                  std::size_t y_stride, Epilogue epilogue) const;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0; }

  /// Packed storage footprint (weights + bias), for accounting.
  std::size_t storage_bytes() const noexcept {
    return (weights_.size() + bias_.size()) * sizeof(float);
  }

  /// Read-only view of the packed weight buffer (block-major, padded).
  /// This is the authoritative kernel input, so integrity checks (e.g.
  /// MatrixCache's CRC poison detection) checksum exactly these bytes.
  const std::vector<float>& packed_weights() const noexcept { return weights_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> weights_;  ///< block-major, zero-padded tail rows
  std::vector<float> bias_;     ///< padded to a block multiple
};

/// One [Conv2d, BatchNorm2d, ReLU] block of a trained branch with the
/// BatchNorm folded into the conv: the conv's own geometry plus folded
/// weights and bias, ready to pack for either precision.
struct FoldedConv {
  Conv2dConfig config;
  Tensor weights;           ///< (out_channels, taps) row-major
  std::vector<float> bias;  ///< out_channels
};

/// Walks `branch`, which must be [Conv2d, BatchNorm2d, ReLU] x N (N >= 1)
/// optionally followed by a single Flatten, and folds each BatchNorm2d's
/// affine (off its running statistics, with that layer's own eps) into
/// the preceding conv, in double: w' = w * s, b' = (b - mean) * s + beta
/// with s = gamma / sqrt(var + eps). Throws ShapeError on any other
/// layout. Reads running statistics, so the source must be in its final
/// (trained) state. Feeds both the float and the int8 plan compilers.
std::vector<FoldedConv> fold_branch(Sequential& branch);

/// One conv stage's geometry for a fixed input plane, built from the
/// stage's Conv2dConfig; shared by the float and int8 plans.
struct ConvGeometry {
  ConvGeometry(const Conv2dConfig& config, std::size_t h_in, std::size_t w_in);

  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t h_in = 0, w_in = 0;
  std::size_t h_out = 0, w_out = 0;
  std::size_t taps = 0;       ///< in_channels * kernel_h * kernel_w
  std::size_t positions = 0;  ///< h_out * w_out
  /// Flat source offset per (output position, tap); -1 = padding tap.
  std::vector<std::ptrdiff_t> patch_index;

  /// Floats in one (C, H, W) input plane / output feature map.
  std::size_t input_count() const noexcept { return in_channels * h_in * w_in; }
  std::size_t output_count() const noexcept { return out_channels * positions; }
};

/// One fused Conv+BN+ReLU stage: its geometry plus the folded weights
/// packed for one precision's GEMM (rows = out_channels, cols = taps).
template <typename Gemm>
struct ConvStage : ConvGeometry {
  using ConvGeometry::ConvGeometry;
  Gemm gemm;
};

/// The compiled stage list a branch plan of either precision holds, for
/// a fixed input plane geometry. Compile once (after training), run many.
template <typename Gemm>
class StagedPlan {
 public:
  using Stage = ConvStage<Gemm>;

  std::size_t input_count() const noexcept {
    return stages_.empty() ? 0 : stages_.front().input_count();
  }
  /// Flattened features per sample, in the (C, H, W) order nn::Flatten
  /// produces.
  std::size_t feature_count() const noexcept {
    return stages_.empty() ? 0 : stages_.back().output_count();
  }
  std::size_t stage_count() const noexcept { return stages_.size(); }
  const Stage& stage(std::size_t i) const { return stages_[i]; }

 protected:
  std::vector<Stage> stages_;
};

/// The float branch plan: each stage gathers its im2col patches into the
/// arena and runs one PackedGemm with the ReLU fused as its epilogue.
class InferencePlan : public StagedPlan<PackedGemm> {
 public:
  /// Compiles fold_branch(branch) for input planes of shape
  /// (in_channels-of-first-conv, h_in, w_in).
  static InferencePlan compile(Sequential& branch, std::size_t h_in, std::size_t w_in);

  /// Runs the branch on one sample: `plane` holds input_count() floats in
  /// (C, H, W) order; the flattened features (feature_count() floats)
  /// are written to `out`. All intermediates come from `arena`; the
  /// caller owns reset() and must hold the arena capability
  /// (assert_owner() in scope).
  void run(const float* plane, float* out, ScratchArena& arena) const
      MANDIPASS_REQUIRES(arena);
};

/// Names of every int8 kernel tier compiled into this binary, in
/// dispatch-preference order; the active tier is first and "generic"
/// (always present) is last. The equivalence suite iterates this list
/// and demands bit-identical outputs from every entry.
std::vector<const char*> quantized_kernel_tiers();

/// The tier PackedQuantizedGemm::run dispatches to.
const char* active_quantized_kernel();

/// An int8 per-row-scaled weight matrix pre-packed for the integer
/// dot-product kernels: output rows in blocks of kOcBlock, columns in
/// groups of kTapGroup taps —
///   packed[blk][(kg * kOcBlock + j) * kTapGroup + t]
///       = Wq[blk * kOcBlock + j][kg * kTapGroup + t]
/// — so one VNNI vpdpbusd (or NEON vdot lane / AVX2 maddubs pair)
/// consumes a whole 4-tap group for 16 channels per step. Tail rows and
/// the tail tap group are zero-padded (0-weight x any activation byte
/// contributes 0, so padding is exact).
///
/// run() quantizes each input vector on the fly to 7-bit unsigned
/// [0, 127] with a per-vector zero point, accumulates exactly in int32,
/// and dequantizes with the precomputed per-row tap sums:
///   y[r] = float(acc - zp * rowsum[r]) * (ascale * scale[r]) + bias[r]
/// A zero-scale weight row or a constant input vector short-circuits to
/// y[r] = bias[r] exactly. All intermediates come from the caller's
/// ScratchArena; the steady state performs zero heap allocations.
class PackedQuantizedGemm {
 public:
  static constexpr std::size_t kOcBlock = 16;  ///< matches PackedGemm
  static constexpr std::size_t kXTile = 4;     ///< input vectors per weight stream
  static constexpr std::size_t kTapGroup = 4;  ///< taps per integer dot step

  PackedQuantizedGemm() = default;

  /// Packs `q` (from quantize_rows) with `bias` of q.rows entries, or
  /// nullptr for an all-zero bias.
  void pack_rows(const QuantizedMatrix& q, const float* bias);

  /// For every input vector xi in [0, x_count) and output row r:
  ///   y[r * y_stride + xi] = epilogue(dequant(Wq x_q)[r] + bias[r]).
  /// Same layout contract as PackedGemm::run. Values are bit-identical
  /// for every kernel tier, thread count, and batch grouping.
  void run(const float* x, std::size_t x_count, std::size_t x_stride, float* y,
           std::size_t y_stride, Epilogue epilogue, ScratchArena& arena) const
      MANDIPASS_REQUIRES(arena);

  /// run() over vectors already quantized to the packed byte layout
  /// (x_stride = kgroups * kTapGroup bytes, group-padding bytes
  /// written) that share ONE affine (ascale, zero_point). This is the
  /// plan's stage path: a conv stage quantizes its input plane once and
  /// gathers im2col patches as bytes, so padding taps gather the
  /// zero-point byte, which dequantizes to exactly 0. Needs no arena —
  /// the accumulators live on the stack.
  void run_prequantized(const std::uint8_t* qx, std::size_t x_count, float ascale,
                        float zero_point, float* y, std::size_t y_stride,
                        Epilogue epilogue) const;

  /// run() forced onto a specific tier from quantized_kernel_tiers(),
  /// for the cross-tier equivalence suite. Returns false (output
  /// untouched) if `tier` names a tier not compiled into this binary.
  bool run_tier(const char* tier, const float* x, std::size_t x_count,
                std::size_t x_stride, float* y, std::size_t y_stride, Epilogue epilogue,
                ScratchArena& arena) const MANDIPASS_REQUIRES(arena);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0; }

  /// Packed footprint: int8 weights + per-row scales/sums/bias.
  std::size_t storage_bytes() const noexcept {
    return weights_.size() * sizeof(std::int8_t) +
           scales_.size() * sizeof(float) + row_sums_.size() * sizeof(std::int32_t) +
           bias_.size() * sizeof(float);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t kgroups_ = 0;  ///< ceil(cols / kTapGroup), the packed k extent
  std::vector<std::int8_t> weights_;    ///< block-major, zero-padded
  std::vector<float> scales_;           ///< per row, padded to a block multiple
  std::vector<std::int32_t> row_sums_;  ///< per row: sum_k Wq[r][k], padded
  std::vector<float> bias_;             ///< per row, padded
};

/// The int8 branch plan: same stages as InferencePlan, but each stage
/// quantizes its input plane once, gathers im2col patches as bytes and
/// multiplies through a PackedQuantizedGemm with the ReLU fused as a
/// dequantizing epilogue.
class QuantizedInferencePlan : public StagedPlan<PackedQuantizedGemm> {
 public:
  /// Quantizes each folded block per row (nn::quantize_rows) and compiles
  /// it for input planes of shape (in_channels-of-first-block, h_in,
  /// w_in).
  static QuantizedInferencePlan compile(std::span<const FoldedConv> blocks, std::size_t h_in,
                                        std::size_t w_in);

  /// Runs the branch on one sample; contract identical to
  /// InferencePlan::run.
  void run(const float* plane, float* out, ScratchArena& arena) const
      MANDIPASS_REQUIRES(arena);
};

}  // namespace mandipass::nn
