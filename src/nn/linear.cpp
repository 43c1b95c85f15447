#include "nn/linear.h"

#include "nn/lanes.h"
#include "nn/serialize.h"

namespace mandipass::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features), out_(out_features), weight_({out_features, in_features}),
      bias_({out_features}) {
  MANDIPASS_EXPECTS(in_features > 0 && out_features > 0);
  weight_.value.init_xavier(rng, in_features, out_features);
}

Tensor Linear::forward(const Tensor& input, bool train) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw ShapeError("Linear::forward expects (N, in_features)");
  }
  if (train) {
    input_ = input;  // backward-only cache; inference skips the deep copy
  }
  const std::size_t n = input.dim(0);
  Tensor out({n, out_});
  const float* w = weight_.value.data();
  for (std::size_t b = 0; b < n; ++b) {
    const float* x = input.data() + b * in_;
    float* y = out.data() + b * out_;
    for (std::size_t o = 0; o < out_; ++o) {
      y[o] = bias_.value[o] + lane_dot(x, w + o * in_, in_);
    }
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  MANDIPASS_EXPECTS(!input_.empty());
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_ ||
      grad_output.dim(0) != input_.dim(0)) {
    throw ShapeError("Linear::backward shape mismatch");
  }
  const std::size_t n = input_.dim(0);
  Tensor grad_in({n, in_});
  const float* w = weight_.value.data();
  float* wg = weight_.grad.data();
  for (std::size_t b = 0; b < n; ++b) {
    const float* x = input_.data() + b * in_;
    const float* dy = grad_output.data() + b * out_;
    float* dx = grad_in.data() + b * in_;
    for (std::size_t o = 0; o < out_; ++o) {
      const float g = dy[o];
      if (g == 0.0f) {
        continue;
      }
      bias_.grad[o] += g;
      const float* wr = w + o * in_;
      float* wgr = wg + o * in_;
      for (std::size_t i = 0; i < in_; ++i) {
        wgr[i] += g * x[i];
        dx[i] += g * wr[i];
      }
    }
  }
  return grad_in;
}

void Linear::save_state(std::ostream& os) const {
  write_tensor(os, weight_.value);
  write_tensor(os, bias_.value);
}

void Linear::load_state(std::istream& is) {
  Tensor w = read_tensor(is);
  Tensor b = read_tensor(is);
  if (w.shape() != weight_.value.shape() || b.shape() != bias_.value.shape()) {
    throw SerializationError("Linear state shape mismatch");
  }
  weight_.value = std::move(w);
  bias_.value = std::move(b);
}

}  // namespace mandipass::nn
