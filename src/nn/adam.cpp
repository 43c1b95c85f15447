#include "nn/adam.h"

#include <cmath>

#include "common/error.h"

namespace mandipass::nn {

Adam::Adam(std::vector<Param*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  MANDIPASS_EXPECTS(config_.lr > 0.0);
  MANDIPASS_EXPECTS(config_.beta1 >= 0.0 && config_.beta1 < 1.0);
  MANDIPASS_EXPECTS(config_.beta2 >= 0.0 && config_.beta2 < 1.0);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    MANDIPASS_EXPECTS(p != nullptr);
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::zero_grad() {
  for (Param* p : params_) {
    p->zero_grad();
  }
}

void Adam::step() {
  ++t_;
  // Bias corrections as reciprocals, once per step: multiplying by them
  // keeps the per-element loop free of two divisions.
  const double inv_bias1 = 1.0 / (1.0 - std::pow(config_.beta1, static_cast<double>(t_)));
  const double inv_bias2 = 1.0 / (1.0 - std::pow(config_.beta2, static_cast<double>(t_)));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    const float b1 = static_cast<float>(config_.beta1);
    const float b2 = static_cast<float>(config_.beta2);
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const float g = p.grad[j];
      m[j] = b1 * m[j] + (1.0f - b1) * g;
      v[j] = b2 * v[j] + (1.0f - b2) * g * g;
      const double m_hat = static_cast<double>(m[j]) * inv_bias1;
      const double v_hat = static_cast<double>(v[j]) * inv_bias2;
      double update = config_.lr * m_hat / (std::sqrt(v_hat) + config_.eps);
      if (config_.weight_decay > 0.0) {
        update += config_.lr * config_.weight_decay * static_cast<double>(p.value[j]);
      }
      p.value[j] -= static_cast<float>(update);
    }
  }
}

}  // namespace mandipass::nn
