#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.h"

namespace mandipass::ml {

NaiveBayesClassifier::NaiveBayesClassifier(double var_smoothing)
    : var_smoothing_(var_smoothing) {
  MANDIPASS_EXPECTS(var_smoothing >= 0.0);
}

void NaiveBayesClassifier::fit(const Dataset& train) {
  MANDIPASS_EXPECTS(!train.x.empty());
  const std::size_t classes = train.class_count();
  const std::size_t d = train.feature_count();
  std::vector<std::size_t> counts(classes, 0);
  mean_.assign(classes, std::vector<double>(d, 0.0));
  var_.assign(classes, std::vector<double>(d, 0.0));
  log_prior_.assign(classes, -std::numeric_limits<double>::infinity());

  for (std::size_t i = 0; i < train.size(); ++i) {
    const std::uint32_t c = train.y[i];
    ++counts[c];
    for (std::size_t j = 0; j < d; ++j) {
      mean_[c][j] += train.x[i][j];
    }
  }
  for (std::size_t c = 0; c < classes; ++c) {
    if (counts[c] == 0) {
      continue;
    }
    for (auto& m : mean_[c]) {
      m /= static_cast<double>(counts[c]);
    }
    log_prior_[c] = std::log(static_cast<double>(counts[c]) / static_cast<double>(train.size()));
  }
  double max_var = 0.0;
  for (std::size_t i = 0; i < train.size(); ++i) {
    const std::uint32_t c = train.y[i];
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = train.x[i][j] - mean_[c][j];
      var_[c][j] += diff * diff;
    }
  }
  for (std::size_t c = 0; c < classes; ++c) {
    if (counts[c] == 0) {
      continue;
    }
    for (auto& v : var_[c]) {
      v /= static_cast<double>(counts[c]);
      max_var = std::max(max_var, v);
    }
  }
  const double eps = var_smoothing_ * std::max(max_var, 1.0);
  for (auto& per_class : var_) {
    for (auto& v : per_class) {
      v += eps;
      if (v <= 0.0) {
        v = 1e-12;
      }
    }
  }
}

std::uint32_t NaiveBayesClassifier::predict(std::span<const double> x) const {
  MANDIPASS_EXPECTS(!mean_.empty());
  double best_score = -std::numeric_limits<double>::infinity();
  std::uint32_t best = 0;
  for (std::size_t c = 0; c < mean_.size(); ++c) {
    if (!std::isfinite(log_prior_[c])) {
      continue;
    }
    double score = log_prior_[c];
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double diff = x[j] - mean_[c][j];
      score -= 0.5 * (std::log(2.0 * std::numbers::pi * var_[c][j]) + diff * diff / var_[c][j]);
    }
    if (score > best_score) {
      best_score = score;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

}  // namespace mandipass::ml
