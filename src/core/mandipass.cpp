#include "core/mandipass.h"

#include "auth/gaussian_matrix.h"
#include "common/error.h"

namespace mandipass::core {

MandiPass::MandiPass(std::shared_ptr<BiometricExtractor> extractor, MandiPassConfig config)
    : extractor_(std::move(extractor)),
      config_(config),
      prep_(config.prep),
      verifier_(config.threshold),
      key_rng_(config.key_seed) {
  MANDIPASS_EXPECTS(extractor_ != nullptr);
}

std::vector<float> MandiPass::extract_print(const imu::RawRecording& recording) {
  const SignalArray array = prep_.process(recording);
  return extractor_->extract(build_gradient_array(array));
}

common::Result<std::vector<float>> MandiPass::try_extract_print(
    const imu::RawRecording& recording) {
  auto array = prep_.try_process(recording);
  if (!array.ok()) {
    return array.error();
  }
  return extractor_->extract(build_gradient_array(array.value()));
}

common::Result<std::size_t> MandiPass::try_enroll(const std::string& user,
                                                  std::span<const imu::RawRecording> recordings) {
  if (user.empty() || recordings.empty()) {
    return common::make_error(common::ErrorCode::InvalidInput,
                              "enrolment needs a user id and at least one recording");
  }
  std::vector<float> mean_print;
  std::size_t usable = 0;
  common::Error last_reject{common::ErrorCode::InvalidInput, "no recordings"};
  for (const auto& rec : recordings) {
    auto print = try_extract_print(rec);
    if (!print.ok()) {
      last_reject = print.error();
      continue;  // graceful degradation: skip unusable captures
    }
    if (mean_print.empty()) {
      mean_print.assign(print.value().size(), 0.0f);
    }
    for (std::size_t i = 0; i < print.value().size(); ++i) {
      mean_print[i] += print.value()[i];
    }
    ++usable;
  }
  if (usable == 0) {
    return common::Error{last_reject.code,
                         "no usable vibration in any enrolment recording (last reject: " +
                             last_reject.message + ")"};
  }
  for (auto& v : mean_print) {
    v /= static_cast<float>(usable);
  }
  seal_template(user, mean_print);
  return usable;
}

void MandiPass::enroll(const std::string& user, std::span<const imu::RawRecording> recordings) {
  MANDIPASS_EXPECTS(!recordings.empty());
  auto result = try_enroll(user, recordings);
  if (!result.ok()) {
    common::raise(result.error());  // mandilint: allow(no-throw-in-datapath) -- legacy throwing wrapper; try_enroll is the typed path
  }
}

void MandiPass::enroll(const std::string& user, const imu::RawRecording& recording) {
  seal_template(user, extract_print(recording));
}

void MandiPass::seal_template(const std::string& user, const std::vector<float>& print) {
  const std::uint64_t seed = key_rng_();
  const auth::GaussianMatrix g(seed, print.size());
  auth::StoredTemplate tmpl;
  tmpl.data = g.transform(print);
  tmpl.matrix_seed = seed;
  tmpl.key_version = 0;
  const auto previous = store_.lookup(user);
  if (previous.has_value()) {
    tmpl.key_version = previous->key_version + 1;
  }
  store_.enroll(user, std::move(tmpl));
}

common::Result<auth::Decision> MandiPass::try_verify(const std::string& user,
                                                     const imu::RawRecording& recording) {
  const auto stored = store_.lookup(user);
  if (!stored.has_value()) {
    // Refused before extraction, so an unknown id costs no preprocessing.
    return auth::check_template(stored, user, 0).error();
  }
  auto print = try_extract_print(recording);
  if (!print.ok()) {
    return print.error();
  }
  const std::vector<float>& probe = print.value();
  if (const auto gate = auth::check_probe(probe); !gate.ok()) {
    return gate.error();
  }
  if (const auto gate = auth::check_template(stored, user, probe.size()); !gate.ok()) {
    return gate.error();
  }
  // The key is rebuilt from its seed on every verify: the device keeps
  // no matrix cache (a dim-512 matrix is 1 MiB per user). The build is
  // still the largest stage of a verify; it runs on this thread, a block
  // of Box-Muller pairs at a time, with the per-draw bits
  // (auth/gaussian_matrix.h).
  const auth::GaussianMatrix g(stored->matrix_seed, probe.size());
  return verifier_.verify(g.transform(probe), stored->data);
}

std::optional<auth::Decision> MandiPass::verify(const std::string& user,
                                                const imu::RawRecording& recording) {
  auto result = try_verify(user, recording);
  if (result.ok()) {
    return result.value();
  }
  if (result.code() == common::ErrorCode::UnknownUser) {
    return std::nullopt;  // the documented legacy contract for unknown ids
  }
  common::raise(result.error());  // mandilint: allow(no-throw-in-datapath) -- legacy throwing wrapper; try_verify is the typed path
}

void MandiPass::rekey(const std::string& user, const imu::RawRecording& recording) {
  MANDIPASS_EXPECTS(store_.lookup(user).has_value());
  enroll(user, recording);  // enroll() bumps key_version and draws a new seed
}

}  // namespace mandipass::core
