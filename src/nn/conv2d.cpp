#include "nn/conv2d.h"

#include <cstring>

#include "common/obs.h"
#include "common/thread_pool.h"
#include "nn/lanes.h"
#include "nn/serialize.h"

// Implementation note: the convolution is lowered to im2col + GEMM-style
// contiguous loops. The patch matrix has one row per output position and
// one column per (in_c, kh, kw) tap; forward multiplies each row by the
// weights accumulating across output channels, and both backward products
// are contiguous axpy loops, all of which the compiler vectorises without
// reordering a sum. With the tiny planes MandiPass uses (6 x 30) this is
// ~5x faster than the direct form on one core.
//
// Inference-mode forward additionally chunks the im2col gather (per
// sample) and the GEMM (per patch row) over the global thread pool. Each
// output element is still produced by one thread with the exact serial
// accumulation order, so multi-threaded inference is bit-identical to
// single-threaded (DESIGN.md §9). Training stays strictly serial: the
// backward pass accumulates into shared weight gradients.

namespace mandipass::nn {

namespace {

// Output channels per forward GEMM block: one `Lanes` of sums.
constexpr std::size_t kOcBlock = kLanes;

}  // namespace

std::size_t Conv2d::out_extent(std::size_t in, std::size_t kernel, std::size_t stride,
                               std::size_t pad) {
  MANDIPASS_EXPECTS(in + 2 * pad >= kernel);
  return (in + 2 * pad - kernel) / stride + 1;
}

Conv2d::Conv2d(const Conv2dConfig& config, Rng& rng)
    : config_(config),
      weight_({config.out_channels, config.in_channels, config.kernel_h, config.kernel_w}),
      bias_({config.out_channels}) {
  MANDIPASS_EXPECTS(config.in_channels > 0 && config.out_channels > 0);
  MANDIPASS_EXPECTS(config.kernel_h > 0 && config.kernel_w > 0);
  MANDIPASS_EXPECTS(config.stride_h > 0 && config.stride_w > 0);
  weight_.value.init_he(rng, config.in_channels * config.kernel_h * config.kernel_w);
}

std::vector<std::ptrdiff_t> Conv2d::make_patch_index(const Conv2dConfig& config,
                                                     std::size_t h_in, std::size_t w_in) {
  const std::size_t h_out = out_extent(h_in, config.kernel_h, config.stride_h, config.pad_h);
  const std::size_t w_out = out_extent(w_in, config.kernel_w, config.stride_w, config.pad_w);
  const std::size_t taps = config.in_channels * config.kernel_h * config.kernel_w;
  // For each (output position, tap): the flat offset into one image's
  // (C, H, W) block, or -1 for a padding tap.
  std::vector<std::ptrdiff_t> index(h_out * w_out * taps, -1);
  std::size_t cell = 0;
  for (std::size_t oh = 0; oh < h_out; ++oh) {
    for (std::size_t ow = 0; ow < w_out; ++ow) {
      for (std::size_t ic = 0; ic < config.in_channels; ++ic) {
        for (std::size_t kh = 0; kh < config.kernel_h; ++kh) {
          for (std::size_t kw = 0; kw < config.kernel_w; ++kw, ++cell) {
            const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * config.stride_h + kh) -
                                      static_cast<std::ptrdiff_t>(config.pad_h);
            const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow * config.stride_w + kw) -
                                      static_cast<std::ptrdiff_t>(config.pad_w);
            if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(h_in) || iw < 0 ||
                iw >= static_cast<std::ptrdiff_t>(w_in)) {
              continue;
            }
            index[cell] =
                (static_cast<std::ptrdiff_t>(ic * h_in) + ih) * static_cast<std::ptrdiff_t>(w_in) +
                iw;
          }
        }
      }
    }
  }
  return index;
}

void Conv2d::build_patch_index(std::size_t h_in, std::size_t w_in) {
  if (h_in == idx_h_in_ && w_in == idx_w_in_) {
    return;  // cached; the output extents were remembered alongside
  }
  idx_h_in_ = h_in;
  idx_w_in_ = w_in;
  idx_h_out_ = out_extent(h_in, config_.kernel_h, config_.stride_h, config_.pad_h);
  idx_w_out_ = out_extent(w_in, config_.kernel_w, config_.stride_w, config_.pad_w);
  patch_index_ = make_patch_index(config_, h_in, w_in);
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  MANDIPASS_OBS_TRACE_SAMPLED(trace_forward, "nn.conv2d.forward_us", 4);
  if (input.rank() != 4 || input.dim(1) != config_.in_channels) {
    throw ShapeError("Conv2d::forward expects (N, in_c, H, W)");
  }
  if (train) {
    input_ = input;  // backward needs the input shape and patch geometry
  }
  const std::size_t n = input.dim(0);
  build_patch_index(input.dim(2), input.dim(3));
  const std::size_t h_out = idx_h_out_;
  const std::size_t w_out = idx_w_out_;
  const std::size_t positions = h_out * w_out;
  const std::size_t taps = config_.in_channels * config_.kernel_h * config_.kernel_w;
  const std::size_t image = input.dim(1) * input.dim(2) * input.dim(3);

  // im2col: rows = N * positions, cols = taps (padding taps stay zero).
  // Each sample writes a disjoint slice of `patches_`.
  patches_.assign(n * positions * taps, 0.0f);
  const auto im2col = [&](std::size_t b_lo, std::size_t b_hi) {
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      const float* img = input.data() + b * image;
      float* dst = patches_.data() + b * positions * taps;
      for (std::size_t cell = 0; cell < positions * taps; ++cell) {
        const std::ptrdiff_t src = patch_index_[cell];
        if (src >= 0) {
          dst[cell] = img[src];
        }
      }
    }
  };

  // GEMM, accumulated across output channels: the weights are repacked
  // taps-major in blocks of kOcBlock channels (bias first, padding
  // channels zero), and each patch row keeps one block's sums in
  // registers over the whole tap loop. Every output element is its bias
  // plus w * patch summed in ascending tap order, as in the plain dot
  // product: no sum is split, so the loop vectorizes under strict IEEE
  // arithmetic, gives the same bits at every vector width, and never
  // depends on how the rows are chunked (parallel output is bit-identical).
  const std::size_t oc_count = config_.out_channels;
  const std::size_t blocks = (oc_count + kOcBlock - 1) / kOcBlock;
  const std::size_t block_floats = (taps + 1) * kOcBlock;
  packed_.assign(blocks * block_floats, 0.0f);
  for (std::size_t oc = 0; oc < oc_count; ++oc) {
    float* dst = packed_.data() + (oc / kOcBlock) * block_floats + oc % kOcBlock;
    dst[0] = bias_.value[oc];
    for (std::size_t k = 0; k < taps; ++k) {
      dst[(k + 1) * kOcBlock] = weight_.value[oc * taps + k];
    }
  }
  Tensor out({n, oc_count, h_out, w_out});
  const std::size_t rows = n * positions;
  const auto gemm = [&](std::size_t r_lo, std::size_t r_hi) {
    // Strength reduction: (b, pos) are divmod of r by `positions`, seeded
    // once per chunk and carried incrementally instead of divided per row.
    std::size_t b = r_lo / positions;
    std::size_t pos = r_lo % positions;
    for (std::size_t r = r_lo; r < r_hi; ++r) {
      const float* patch = patches_.data() + r * taps;
      for (std::size_t blk = 0; blk < blocks; ++blk) {
        const float* wb = packed_.data() + blk * block_floats;
        Lanes acc;
        std::memcpy(&acc, wb, sizeof acc);
        for (std::size_t k = 0; k < taps; ++k) {
          Lanes wk;
          std::memcpy(&wk, wb + (k + 1) * kOcBlock, sizeof wk);
          acc += wk * patch[k];
        }
        const std::size_t oc0 = blk * kOcBlock;
        for (std::size_t j = 0; j < kOcBlock && oc0 + j < oc_count; ++j) {
          out.data()[(b * oc_count + oc0 + j) * positions + pos] = acc[j];
        }
      }
      if (++pos == positions) {
        pos = 0;
        ++b;
      }
    }
  };

  if (train) {
    im2col(0, n);
    gemm(0, rows);
  } else {
    common::parallel_for(0, n, 1, im2col);
    common::parallel_for(0, rows, 32, gemm);
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  MANDIPASS_EXPECTS(!input_.empty());
  const std::size_t n = input_.dim(0);
  const std::size_t positions = idx_h_out_ * idx_w_out_;
  const std::size_t taps = config_.in_channels * config_.kernel_h * config_.kernel_w;
  const std::size_t image = input_.dim(1) * input_.dim(2) * input_.dim(3);
  if (grad_output.rank() != 4 || grad_output.dim(0) != n ||
      grad_output.dim(1) != config_.out_channels || grad_output.dim(2) != idx_h_out_ ||
      grad_output.dim(3) != idx_w_out_) {
    throw ShapeError("Conv2d::backward shape mismatch");
  }

  // Gradient wrt patches, then scatter (col2im) into grad_input.
  grad_patches_.assign(n * positions * taps, 0.0f);
  const float* w = weight_.value.data();
  float* wg = weight_.grad.data();
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < config_.out_channels; ++oc) {
      const float* dy =
          grad_output.data() + (b * config_.out_channels + oc) * positions;
      const float* wr = w + oc * taps;
      float* wgr = wg + oc * taps;
      for (std::size_t pos = 0; pos < positions; ++pos) {
        const float g = dy[pos];
        if (g == 0.0f) {
          continue;
        }
        bias_.grad[oc] += g;
        const float* patch = patches_.data() + (b * positions + pos) * taps;
        float* gpatch = grad_patches_.data() + (b * positions + pos) * taps;
        for (std::size_t k = 0; k < taps; ++k) {
          wgr[k] += g * patch[k];
          gpatch[k] += g * wr[k];
        }
      }
    }
  }

  Tensor grad_in(input_.shape());
  for (std::size_t b = 0; b < n; ++b) {
    float* gin = grad_in.data() + b * image;
    const float* gp = grad_patches_.data() + b * positions * taps;
    for (std::size_t cell = 0; cell < positions * taps; ++cell) {
      const std::ptrdiff_t dst = patch_index_[cell];
      if (dst >= 0) {
        gin[dst] += gp[cell];
      }
    }
  }
  return grad_in;
}

void Conv2d::save_state(std::ostream& os) const {
  write_tensor(os, weight_.value);
  write_tensor(os, bias_.value);
}

void Conv2d::load_state(std::istream& is) {
  Tensor w = read_tensor(is);
  Tensor b = read_tensor(is);
  if (w.shape() != weight_.value.shape() || b.shape() != bias_.value.shape()) {
    throw SerializationError("Conv2d state shape mismatch");
  }
  weight_.value = std::move(w);
  bias_.value = std::move(b);
}

}  // namespace mandipass::nn
