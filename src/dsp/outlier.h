// MAD-based outlier detection and two-step mean replacement (Section IV).
//
// The paper: "we first detect them by a MAD algorithm, and then replace
// them with means of normal values ... replace each outlier with the mean
// of its two previous normal values and two subsequent normal values."
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mandipass::dsp {

/// Configuration for the MAD outlier detector.
struct MadConfig {
  /// A sample is an outlier when |x - median| > threshold * MAD * 1.4826.
  /// 3.0 is the conventional "3 sigma" choice.
  double threshold = 3.0;
};

/// Returns a bool mask (true = outlier) for `xs` under the MAD rule.
/// A constant segment (MAD == 0) yields no outliers unless a sample
/// differs from the median at all, in which case any non-median sample is
/// flagged (degenerate but deterministic behaviour).
std::vector<bool> detect_outliers_mad(std::span<const double> xs, const MadConfig& config = {});

/// Replaces each flagged sample with the mean of its two previous and two
/// subsequent *normal* (non-flagged) neighbours; near the borders fewer
/// neighbours are used. If every sample is flagged the segment is returned
/// unchanged (nothing trustworthy to interpolate from).
std::vector<double> replace_outliers_with_neighbor_mean(std::span<const double> xs,
                                                        const std::vector<bool>& outlier_mask);

/// detect + replace in one call.
std::vector<double> mad_clean(std::span<const double> xs, const MadConfig& config = {});

}  // namespace mandipass::dsp
