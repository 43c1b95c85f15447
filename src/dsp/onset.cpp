#include "dsp/onset.h"

#include <cmath>

#include "common/error.h"
#include "common/stats.h"

namespace mandipass::dsp {

std::optional<std::size_t> detect_onset(std::span<const double> xs, const OnsetConfig& config) {
  MANDIPASS_EXPECTS(config.window > 0 && config.stride > 0);
  MANDIPASS_EXPECTS(config.start_threshold >= config.sustain_threshold);
  const auto stds = windowed_stddev(xs, config.window, config.stride);
  for (std::size_t w = 0; w < stds.size(); ++w) {
    if (stds[w] <= config.start_threshold) {
      continue;
    }
    bool sustained = true;
    const std::size_t last = std::min(w + config.sustain_windows, stds.size() - 1);
    for (std::size_t v = w + 1; v <= last; ++v) {
      if (stds[v] < config.sustain_threshold) {
        sustained = false;
        break;
      }
    }
    if (sustained) {
      return w * config.stride;
    }
  }
  return std::nullopt;
}

common::ErrorCode classify_onset_failure(std::span<const double> xs, double full_scale_lsb) {
  MANDIPASS_EXPECTS(full_scale_lsb > 0.0);
  std::size_t saturated = 0;
  for (double v : xs) {
    if (!std::isfinite(v)) {
      return common::ErrorCode::NonFiniteSample;
    }
    if (std::abs(v) >= full_scale_lsb) {
      ++saturated;
    }
  }
  if (!xs.empty() && saturated * 2 > xs.size()) {
    return common::ErrorCode::SensorSaturated;
  }
  return common::ErrorCode::OnsetNotFound;
}

}  // namespace mandipass::dsp
