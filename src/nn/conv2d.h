// 2-D convolution layer (NCHW, direct loops).
//
// The paper's biometric extractor uses 3x3 kernels with a 1x2 stride
// (stride 1 along the axis dimension H, stride 2 along time W) and three
// such layers per branch. The convolution is lowered to im2col + GEMM-
// style contiguous loops (see conv2d.cpp) — on the single core this runs
// ~13x faster than a direct indexed form.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layer.h"

namespace mandipass::nn {

struct Conv2dConfig {
  std::size_t in_channels = 1;
  std::size_t out_channels = 16;
  std::size_t kernel_h = 3;
  std::size_t kernel_w = 3;
  std::size_t stride_h = 1;
  std::size_t stride_w = 2;
  std::size_t pad_h = 1;
  std::size_t pad_w = 1;
};

class Conv2d final : public Layer {
 public:
  Conv2d(const Conv2dConfig& config, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Conv2d"; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// Output extent along one dimension.
  static std::size_t out_extent(std::size_t in, std::size_t kernel, std::size_t stride,
                                std::size_t pad);

  /// Builds the im2col gather index for one (C, H, W) image: the flat
  /// source offset per (output position, tap), -1 for a padding tap.
  /// Shared with the compiled inference plan (nn/inference_plan.h).
  static std::vector<std::ptrdiff_t> make_patch_index(const Conv2dConfig& config,
                                                      std::size_t h_in, std::size_t w_in);

  const Conv2dConfig& config() const { return config_; }

 private:
  Conv2dConfig config_;
  Param weight_;  ///< (out_c, in_c, kh, kw)
  Param bias_;    ///< (out_c)
  Tensor input_;  ///< cached for backward

  /// Builds (and caches) the im2col gather index for the given input
  /// plane size: flat source offset per (output position, tap), -1 = pad.
  void build_patch_index(std::size_t h_in, std::size_t w_in);

  std::size_t idx_h_in_ = 0, idx_w_in_ = 0;
  std::size_t idx_h_out_ = 0, idx_w_out_ = 0;
  std::vector<std::ptrdiff_t> patch_index_;
  std::vector<float> patches_;       ///< im2col buffer of the last forward
  std::vector<float> packed_;        ///< forward's taps-major weight blocks
  std::vector<float> grad_patches_;  ///< col2im staging for backward
};

}  // namespace mandipass::nn
