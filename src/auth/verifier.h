// Threshold decision + verification workflow glue (Section III's
// "similarity calculation" module).
#pragma once

#include <optional>
#include <span>
#include <string>

#include "auth/metrics.h"
#include "auth/template_store.h"
#include "common/result.h"

namespace mandipass::auth {

/// Outcome of one verification request.
struct Decision {
  bool accepted = false;
  double distance = 0.0;  ///< cosine distance probe vs template
};

/// Stateless policy: accept iff cosine distance <= threshold.
class Verifier {
 public:
  explicit Verifier(double threshold = kPaperThreshold);

  /// Compares two already-transformed (cancelable) vectors.
  Decision verify(std::span<const float> probe, std::span<const float> reference) const;

  double threshold() const { return threshold_; }
  void set_threshold(double t);

 private:
  double threshold_;
};

/// The totality gate every verify entry point (facade, batch, shard,
/// resilient) runs before it transforms a probe (DESIGN.md §12). Each
/// reject is built with make_error, so it counts its fault.reject.<code>
/// counter; layer counters stay with the caller.
///
/// check_probe: InvalidInput for an empty probe, NonFiniteSample for a
/// NaN/Inf value.
common::Result<void> check_probe(std::span<const float> raw_probe);

/// check_template: UnknownUser when `stored` is empty, whatever
/// `probe_dim` is; DimensionMismatch when the probe and the sealed
/// template differ in length. The cancelable transform is square, so such
/// a probe can never match, and cosine_distance would assert on it.
common::Result<void> check_template(const std::optional<StoredTemplate>& stored,
                                    const std::string& user, std::size_t probe_dim);

}  // namespace mandipass::auth
