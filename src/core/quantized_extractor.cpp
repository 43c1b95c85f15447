#include "core/quantized_extractor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/obs.h"

namespace mandipass::core {

QuantizedExtractor::Branch QuantizedExtractor::quantize_branch(
    std::span<const nn::FoldedConv> blocks) const {
  Branch out;
  std::size_t h = config_.axes;
  std::size_t w = config_.half_length;
  for (const nn::FoldedConv& block : blocks) {
    const ConvLayer& layer = out.emplace_back(ConvLayer{
        nn::ConvGeometry(block.config, h, w), nn::quantize_rows(block.weights), block.bias});
    h = layer.geometry.h_out;
    w = layer.geometry.w_out;
  }
  return out;
}

QuantizedExtractor::QuantizedExtractor(BiometricExtractor& source)
    : config_(source.config()) {
  requantize(source);
}

void QuantizedExtractor::requantize(BiometricExtractor& source) {
  MANDIPASS_EXPECTS(source.config().axes == config_.axes &&
                    source.config().half_length == config_.half_length &&
                    source.config().embedding_dim == config_.embedding_dim);
  MANDIPASS_OBS_TRACE(trace_compile, "nn.qplan.compile_us");
  const std::vector<nn::FoldedConv> pos = nn::fold_branch(source.branch_positive());
  const std::vector<nn::FoldedConv> neg = nn::fold_branch(source.branch_negative());
  const std::vector<nn::Param*> lp = trunk_linear(source).params();
  nn::QuantizedMatrix fc_weights = nn::quantize_rows(lp[0]->value);
  const nn::Tensor& b = lp[1]->value;
  std::vector<float> fc_bias(b.data(), b.data() + b.size());
  nn::PackedQuantizedGemm trunk;
  trunk.pack_rows(fc_weights, fc_bias.data());
  const std::size_t h = config_.axes;
  const std::size_t w = config_.half_length;
  plan_ = {h, w, nn::QuantizedInferencePlan::compile(pos, h, w),
           nn::QuantizedInferencePlan::compile(neg, h, w), std::move(trunk)};
  positive_ = quantize_branch(pos);
  negative_ = quantize_branch(neg);
  fc_weights_ = std::move(fc_weights);
  fc_bias_ = std::move(fc_bias);
}

std::vector<float> QuantizedExtractor::run_branch(const Branch& branch, std::vector<float> in) {
  for (const ConvLayer& layer : branch) {
    const nn::ConvGeometry& g = layer.geometry;
    MANDIPASS_EXPECTS(in.size() == g.input_count());
    std::vector<float> out(g.output_count());
    std::vector<float> patch(g.taps);
    std::vector<float> y(g.out_channels);
    for (std::size_t pos = 0; pos < g.positions; ++pos) {
      // Gather the patch (zero padding outside the plane).
      const std::ptrdiff_t* idx = g.patch_index.data() + pos * g.taps;
      for (std::size_t t = 0; t < g.taps; ++t) {
        patch[t] = idx[t] >= 0 ? in[static_cast<std::size_t>(idx[t])] : 0.0f;
      }
      nn::quantized_matvec(layer.weights, patch.data(), layer.bias.data(), y.data());
      for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
        out[oc * g.positions + pos] = std::max(0.0f, y[oc]);  // folded BN + ReLU
      }
    }
    in = std::move(out);
  }
  return in;  // already flattened in (c, h, w) order, matching nn::Flatten
}

std::vector<float> QuantizedExtractor::extract_scalar(const GradientArray& array) const {
  const std::size_t axes = config_.axes;
  const std::size_t half = config_.half_length;
  expect_branch_shape(array, axes, half);
  std::vector<float> pos_plane(axes * half);
  std::vector<float> neg_plane(axes * half);
  pack_plane(array.positive, axes, half, pos_plane.data());
  pack_plane(array.negative, axes, half, neg_plane.data());
  std::vector<float> concat = run_branch(positive_, std::move(pos_plane));
  const std::vector<float> fn = run_branch(negative_, std::move(neg_plane));
  concat.insert(concat.end(), fn.begin(), fn.end());
  MANDIPASS_EXPECTS(concat.size() == fc_weights_.cols);

  std::vector<float> embedding(config_.embedding_dim);
  nn::quantized_matvec(fc_weights_, concat.data(), fc_bias_.data(), embedding.data());
  for (auto& v : embedding) {
    v = 1.0f / (1.0f + std::exp(-v));
  }
  return embedding;
}

std::size_t QuantizedExtractor::storage_bytes() const {
  std::size_t bytes = fc_weights_.storage_bytes() + fc_bias_.size() * sizeof(float);
  for (const Branch* branch : {&positive_, &negative_}) {
    for (const ConvLayer& layer : *branch) {
      bytes += layer.weights.storage_bytes() + layer.bias.size() * sizeof(float);
    }
  }
  return bytes;
}

}  // namespace mandipass::core
