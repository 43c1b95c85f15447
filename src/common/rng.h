// Deterministic random number generation for the whole library.
//
// Every stochastic component (population sampling, sensor noise, Gaussian
// projection matrices, data splits) draws from an explicitly passed Rng so
// that experiments are reproducible from a single seed. The generator is
// xoshiro256++ (public domain, Blackman & Vigna), which is fast, has a
// 256-bit state and passes BigCrush.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mandipass {

/// Deterministic pseudo-random generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to
/// <random> facilities, but the member helpers avoid the libstdc++
/// distribution objects whose sequences differ across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit output (xoshiro256++ scrambler).
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box-Muller (cached spare deviate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Fills `out` with static_cast<float>(normal(0.0, stddev)) per element,
  /// bit for bit, and leaves the generator exactly as out.size() calls to
  /// normal() would (a pending spare is used first; an odd tail leaves
  /// one pending). Pairs are evaluated a block at a time with the
  /// vectorisable kernels of common/libm_kernels.h; any pair whose scaled
  /// value lies within 2^12 double ulps of a float rounding midpoint, or
  /// outside float's normal range, is recomputed with libm, so the floats
  /// are the ones normal() gives. Precondition: stddev >= 0.
  void normal_floats(std::span<float> out, double stddev);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derives an independent child generator; used to give each simulated
  /// person / session its own stream without coupling draw orders.
  Rng fork();

 private:
  std::uint64_t state_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace mandipass
