// Shared fixture format for the golden-pipeline regression suite.
//
// One committed binary file captures a full MandiPass trace generated
// with the seeded simulator:
//
//   raw IMU probe recording  ->  SignalArray  ->  GradientArray  ->
//   MandiblePrint prefix  ->  (template, genuine + impostor Decision)
//
// plus the enrolment and impostor gradient arrays and the extractor
// configuration needed to replay every stage. The test re-runs each
// stage from the *stored* input of that stage, so a regression points at
// the exact pipeline step that changed.
//
// Regenerate with:  build/tests/golden_gen tests/golden/data
#pragma once

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/error.h"
#include "common/io.h"
#include "core/extractor.h"
#include "core/signal_array.h"
#include "imu/types.h"
#include "nn/serialize.h"

namespace mandipass::testing {

inline constexpr const char* kGoldenTag = "MANDIPASS-GOLDEN-V1";
inline constexpr const char* kGoldenFileName = "golden_pipeline.bin";

struct GoldenFixture {
  imu::RawRecording probe_recording;   ///< stage-1 input
  core::SignalArray probe_signal;      ///< expected stage-1 output
  core::GradientArray probe_gradient;  ///< expected stage-2 output
  core::GradientArray enroll_gradient;
  core::GradientArray impostor_gradient;

  core::ExtractorConfig extractor;     ///< untrained, seeded weights
  std::vector<float> print_prefix;     ///< expected probe MandiblePrint prefix

  std::uint64_t gauss_seed = 0;        ///< cancelable-transform key
  double genuine_distance = 0.0;       ///< probe vs enrolment template
  double impostor_distance = 0.0;
  double threshold = 0.0;              ///< separates the two with margin
};

namespace detail {

inline void write_f64(std::ostream& os, double v) {
  static_assert(sizeof(double) == 8);
  common::write_exact(os, &v, 8, "f64");
}

inline double read_f64(std::istream& is) {
  double v = 0.0;
  common::read_exact(is, &v, 8, "f64");
  return v;
}

inline void write_doubles(std::ostream& os, const std::vector<double>& v) {
  nn::write_u64(os, v.size());
  common::write_exact(os, v.data(), v.size() * sizeof(double), "golden doubles");
}

inline std::vector<double> read_doubles(std::istream& is) {
  const std::uint64_t n = nn::read_u64(is);
  if (n > (1ULL << 24)) {
    throw SerializationError("golden fixture: implausible vector length");
  }
  std::vector<double> v(static_cast<std::size_t>(n));
  common::read_exact(is, v.data(), v.size() * sizeof(double), "golden doubles");
  return v;
}

inline void write_gradient(std::ostream& os, const core::GradientArray& g) {
  for (const auto& axis : g.positive) {
    write_doubles(os, axis);
  }
  for (const auto& axis : g.negative) {
    write_doubles(os, axis);
  }
}

inline core::GradientArray read_gradient(std::istream& is) {
  core::GradientArray g;
  for (auto& axis : g.positive) {
    axis = read_doubles(is);
  }
  for (auto& axis : g.negative) {
    axis = read_doubles(is);
  }
  return g;
}

}  // namespace detail

inline void save_golden(std::ostream& os, const GoldenFixture& f) {
  nn::write_tag(os, kGoldenTag);
  detail::write_f64(os, f.probe_recording.sample_rate_hz);
  for (const auto& axis : f.probe_recording.axes) {
    detail::write_doubles(os, axis);
  }
  for (const auto& axis : f.probe_signal.axes) {
    detail::write_doubles(os, axis);
  }
  detail::write_gradient(os, f.probe_gradient);
  detail::write_gradient(os, f.enroll_gradient);
  detail::write_gradient(os, f.impostor_gradient);

  nn::write_u64(os, f.extractor.axes);
  nn::write_u64(os, f.extractor.half_length);
  nn::write_u64(os, f.extractor.embedding_dim);
  for (const std::size_t c : f.extractor.channels) {
    nn::write_u64(os, c);
  }
  nn::write_u64(os, f.extractor.seed);

  nn::write_u64(os, f.print_prefix.size());
  common::write_exact(os, f.print_prefix.data(), f.print_prefix.size() * sizeof(float),
                      "golden print prefix");

  nn::write_u64(os, f.gauss_seed);
  detail::write_f64(os, f.genuine_distance);
  detail::write_f64(os, f.impostor_distance);
  detail::write_f64(os, f.threshold);
  MANDIPASS_EXPECTS(os.good());
}

inline GoldenFixture load_golden(std::istream& is) {
  GoldenFixture f;
  nn::expect_tag(is, kGoldenTag);
  f.probe_recording.sample_rate_hz = detail::read_f64(is);
  for (auto& axis : f.probe_recording.axes) {
    axis = detail::read_doubles(is);
  }
  for (auto& axis : f.probe_signal.axes) {
    axis = detail::read_doubles(is);
  }
  f.probe_gradient = detail::read_gradient(is);
  f.enroll_gradient = detail::read_gradient(is);
  f.impostor_gradient = detail::read_gradient(is);

  f.extractor.axes = static_cast<std::size_t>(nn::read_u64(is));
  f.extractor.half_length = static_cast<std::size_t>(nn::read_u64(is));
  f.extractor.embedding_dim = static_cast<std::size_t>(nn::read_u64(is));
  for (std::size_t& c : f.extractor.channels) {
    c = static_cast<std::size_t>(nn::read_u64(is));
  }
  f.extractor.seed = nn::read_u64(is);

  const std::uint64_t prefix = nn::read_u64(is);
  if (prefix > f.extractor.embedding_dim) {
    throw SerializationError("golden fixture: implausible prefix length");
  }
  f.print_prefix.resize(static_cast<std::size_t>(prefix));
  common::read_exact(is, f.print_prefix.data(), f.print_prefix.size() * sizeof(float),
                     "golden print prefix");

  f.gauss_seed = nn::read_u64(is);
  f.genuine_distance = detail::read_f64(is);
  f.impostor_distance = detail::read_f64(is);
  f.threshold = detail::read_f64(is);
  return f;
}

}  // namespace mandipass::testing
