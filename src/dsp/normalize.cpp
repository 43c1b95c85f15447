// mandilint: allow-file(expects-guard) -- the normaliser is total: empty
// and constant inputs are documented to yield all-zero output, so there is
// no precondition to assert.
#include "dsp/normalize.h"

#include "common/stats.h"

namespace mandipass::dsp {

std::vector<double> minmax_normalize(std::span<const double> xs) {
  std::vector<double> out(xs.size(), 0.0);
  if (xs.empty()) {
    return out;
  }
  const double lo = min_value(xs);
  const double hi = max_value(xs);
  if (hi == lo) {
    return out;
  }
  const double inv = 1.0 / (hi - lo);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = (xs[i] - lo) * inv;
  }
  return out;
}

}  // namespace mandipass::dsp
