#include "dsp/outlier.h"

#include <cmath>

#include "common/error.h"
#include "common/stats.h"

namespace mandipass::dsp {
namespace {

// Consistency constant making MAD an unbiased sigma estimator for normal
// data: 1 / Phi^{-1}(3/4).
constexpr double kMadToSigma = 1.4826022185056018;

}  // namespace

std::vector<bool> detect_outliers_mad(std::span<const double> xs, const MadConfig& config) {
  MANDIPASS_EXPECTS(config.threshold > 0.0);
  std::vector<bool> mask(xs.size(), false);
  if (xs.empty()) {
    return mask;
  }
  const double med = median(xs);
  const double scale = mad(xs) * kMadToSigma;
  if (scale == 0.0) {
    // Degenerate (at least half the samples identical): flag anything that
    // deviates from the median at all.
    for (std::size_t i = 0; i < xs.size(); ++i) {
      mask[i] = xs[i] != med;
    }
    return mask;
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mask[i] = std::abs(xs[i] - med) > config.threshold * scale;
  }
  return mask;
}

std::vector<double> replace_outliers_with_neighbor_mean(std::span<const double> xs,
                                                        const std::vector<bool>& outlier_mask) {
  MANDIPASS_EXPECTS(xs.size() == outlier_mask.size());
  std::vector<double> out(xs.begin(), xs.end());
  bool any_normal = false;
  for (bool flagged : outlier_mask) {
    if (!flagged) {
      any_normal = true;
      break;
    }
  }
  if (!any_normal) {
    return out;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!outlier_mask[i]) {
      continue;
    }
    double acc = 0.0;
    int count = 0;
    // Two previous normal values...
    for (std::size_t j = i, found = 0; j > 0 && found < 2;) {
      --j;
      if (!outlier_mask[j]) {
        acc += xs[j];
        ++count;
        ++found;
      }
    }
    // ...and two subsequent normal values.
    for (std::size_t j = i + 1, found = 0; j < xs.size() && found < 2; ++j) {
      if (!outlier_mask[j]) {
        acc += xs[j];
        ++count;
        ++found;
      }
    }
    if (count > 0) {
      out[i] = acc / count;
    }
  }
  return out;
}

std::vector<double> mad_clean(std::span<const double> xs, const MadConfig& config) {
  return replace_outliers_with_neighbor_mean(xs, detect_outliers_mad(xs, config));
}

}  // namespace mandipass::dsp
