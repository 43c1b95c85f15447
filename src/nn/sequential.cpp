#include "nn/sequential.h"

#include "nn/serialize.h"

namespace mandipass::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  MANDIPASS_EXPECTS(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& l : layers_) {
    x = l->forward(x, train);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& l : layers_) {
    for (Param* p : l->params()) {
      all.push_back(p);
    }
  }
  return all;
}

Layer& Sequential::layer(std::size_t i) {
  MANDIPASS_EXPECTS(i < layers_.size());
  return *layers_[i];
}

void Sequential::save_state(std::ostream& os) const {
  write_tag(os, "SEQ");
  write_u64(os, layers_.size());
  for (const auto& l : layers_) {
    write_tag(os, l->name());
    l->save_state(os);
  }
}

void Sequential::load_state(std::istream& is) {
  expect_tag(is, "SEQ");
  const std::uint64_t count = read_u64(is);
  if (count != layers_.size()) {
    throw SerializationError("Sequential layer count mismatch");
  }
  for (auto& l : layers_) {
    expect_tag(is, l->name());
    l->load_state(is);
  }
}

}  // namespace mandipass::nn
