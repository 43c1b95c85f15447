// Deterministic random number generation for the whole library.
//
// Every stochastic component (population sampling, sensor noise, Gaussian
// projection matrices, data splits) draws from an explicitly passed Rng so
// that experiments are reproducible from a single seed. The generator is
// xoshiro256++ (public domain, Blackman & Vigna), which is fast, has a
// 256-bit state and passes BigCrush.
#pragma once

#include <cstdint>
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

  /// Leaves the generator exactly as `n` calls to normal() would, without
  /// evaluating the log, sqrt and sincos of the pairs it skips: a pending
  /// spare is consumed first, each skipped pair costs its two raw draws
  /// (plus the re-draw of a zero u1), and an odd tail runs one real
  /// normal() so that its spare is pending afterwards. Lets a parallel
  /// lane start mid-stream with the same values a serial walk would draw.
  void discard_normals(std::uint64_t n);

  /// Log-normal: exp(normal(mu, sigma)). Handy for strictly positive
  /// physiological parameters.
  double lognormal(double mu, double sigma);

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
