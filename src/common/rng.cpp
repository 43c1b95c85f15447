#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/error.h"

namespace mandipass {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) {
    w = splitmix64(s);
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MANDIPASS_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  MANDIPASS_EXPECTS(n > 0);
  // Lemire's rejection-free-ish multiply-shift with rejection for exactness.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_spare_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

void Rng::discard_normals(std::uint64_t n) {
  if (n > 0 && has_spare_) {
    has_spare_ = false;
    --n;
  }
  for (; n >= 2; n -= 2) {
    // The draws of normal()'s pair, minus the transform.
    while (uniform() <= 0.0) {
    }
    (*this)();
  }
  if (n == 1) {
    normal();
  }
}

double Rng::normal(double mean, double stddev) {
  MANDIPASS_EXPECTS(stddev >= 0.0);
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) {
  MANDIPASS_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_index(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::fork() {
  // Mixing two raw outputs through splitmix keeps child streams decorrelated
  // from the parent's subsequent draws.
  std::uint64_t s = (*this)() ^ rotl((*this)(), 29);
  return Rng(splitmix64(s));
}

}  // namespace mandipass
