// Min-max normalisation (Section IV, Eq. 7).
#pragma once

#include <span>
#include <vector>

namespace mandipass::dsp {

/// Maps a segment to [0, 1] via (x - min) / (max - min). A constant
/// segment maps to all zeros (the paper does not define this case; zeros
/// keep downstream gradients finite).
std::vector<double> minmax_normalize(std::span<const double> xs);

}  // namespace mandipass::dsp
