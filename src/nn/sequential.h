// Sequential layer container.
#pragma once

#include <memory>

#include "nn/layer.h"

namespace mandipass::nn {

/// Owns an ordered list of layers and chains forward / backward through
/// them. Used for each convolutional branch of the biometric extractor
/// and for the small MLP baseline.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer (builder style).
  Sequential& add(std::unique_ptr<Layer> layer);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Sequential"; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace mandipass::nn
