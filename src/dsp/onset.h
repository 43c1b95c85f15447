// Vibration onset detection and segmentation (Section IV).
//
// "We first divide captured accelerometer signal values into windows and
// then calculate the standard deviation of each window. Each window has
// ten continuous signal values and the slide stride is also ten signal
// values. If the standard deviation of a window is larger than 250 and
// the standard deviations of the subsequent windows are not lower than
// 100, the vibration is regarded to start at this window."
//
// The absolute thresholds (250 / 100) are in raw MPU LSB units; our
// sensor model emits the same integer scale so the constants transfer.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "common/result.h"

namespace mandipass::dsp {

struct OnsetConfig {
  std::size_t window = 10;        ///< samples per window
  std::size_t stride = 10;        ///< window slide, equal to window in the paper
  double start_threshold = 250.0; ///< std-dev that marks a candidate start
  double sustain_threshold = 100.0; ///< subsequent windows must stay above this
  std::size_t sustain_windows = 3;  ///< how many subsequent windows to check
};

/// Returns the index (into `xs`) of the first sample of the window where
/// the vibration starts, or nullopt when no onset is present.
std::optional<std::size_t> detect_onset(std::span<const double> xs, const OnsetConfig& config = {});

/// Diagnoses *why* detect_onset returned nullopt, so callers can surface
/// a typed reject reason instead of a generic "no onset" (DESIGN.md §12).
/// Scans `xs` once, on the already-cold reject path:
///   NonFiniteSample  any NaN/Inf in the signal (poisons the windowed
///                    std-dev, so the thresholds can never fire)
///   SensorSaturated  more than half the samples pinned at ±full_scale
///                    (a clipped capture is flat where it should vibrate)
///   OnsetNotFound    the signal is genuinely quiet
common::ErrorCode classify_onset_failure(std::span<const double> xs,
                                         double full_scale_lsb = 32767.0);

}  // namespace mandipass::dsp
