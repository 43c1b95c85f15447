#include "auth/verifier.h"

#include <cmath>
#include <string>

#include "auth/cosine.h"
#include "common/error.h"

namespace mandipass::auth {

Verifier::Verifier(double threshold) : threshold_(threshold) {
  MANDIPASS_EXPECTS(threshold >= 0.0 && threshold <= 2.0);
}

void Verifier::set_threshold(double t) {
  MANDIPASS_EXPECTS(t >= 0.0 && t <= 2.0);
  threshold_ = t;
}

Decision Verifier::verify(std::span<const float> probe, std::span<const float> reference) const {
  Decision d;
  d.distance = cosine_distance(probe, reference);
  d.accepted = d.distance <= threshold_;
  return d;
}

common::Result<void> check_probe(std::span<const float> raw_probe) {
  using common::ErrorCode;
  if (raw_probe.empty()) {
    return common::make_error(ErrorCode::InvalidInput, "empty probe vector");
  }
  for (std::size_t i = 0; i < raw_probe.size(); ++i) {
    if (!std::isfinite(raw_probe[i])) {
      return common::make_error(ErrorCode::NonFiniteSample,
                                "non-finite probe value at index " + std::to_string(i));
    }
  }
  return {};
}

common::Result<void> check_template(const std::optional<StoredTemplate>& stored,
                                    const std::string& user, std::size_t probe_dim) {
  using common::ErrorCode;
  if (!stored.has_value()) {
    return common::make_error(ErrorCode::UnknownUser, "no enrolment for user '" + user + "'");
  }
  if (stored->data.size() != probe_dim) {
    return common::make_error(ErrorCode::DimensionMismatch,
                              "probe dimension " + std::to_string(probe_dim) +
                                  " != template dimension " + std::to_string(stored->data.size()) +
                                  " for user '" + user + "'");
  }
  return {};
}

}  // namespace mandipass::auth
