#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "common/error.h"
#include "common/libm_kernels.h"

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

/// The two uniforms of one Box-Muller pair, drawn as normal() draws them:
/// u1 in (0, 1), a zero re-drawn, then u2 in [0, 1).
struct Uniforms {
  double u1;
  double u2;
};

Uniforms draw_uniforms(Rng& rng) {
  Uniforms u{};
  do {
    u.u1 = rng.uniform();
  } while (u.u1 <= 0.0);
  u.u2 = rng.uniform();
  return u;
}

/// normal()'s Box-Muller pair in libm: the cos branch (returned first)
/// and the sin branch (kept as the spare).
struct NormalPair {
  double first;
  double spare;
};

NormalPair box_muller(Uniforms u) {
  const double mag = std::sqrt(-2.0 * std::log(u.u1));
  return {mag * std::cos(2.0 * std::numbers::pi * u.u2),
          mag * std::sin(2.0 * std::numbers::pi * u.u2)};
}

/// normal(mean, stddev)'s scaling of a standard deviate. normal_floats
/// scales every value through it too, so its floats stay normal()'s.
double scaled(double mean, double stddev, double z) { return mean + stddev * z; }

// normal_floats works on blocks of this many pairs.
constexpr std::size_t kBlockPairs = 128;

// Half-width, in double ulps, of the band around a float rounding
// midpoint inside which a fast value goes back to libm. The fast kernels
// are within 2 ulp of libm and the rest of the expression adds a few
// roundings, so a value outside the band rounds to the same float as
// libm's (see near_float_tie).
constexpr std::uint64_t kTieBand = std::uint64_t{1} << 12;

/// 1 when static_cast<float>(d) could change if d moved by up to kTieBand
/// double ulps, else 0 (a 64-bit flag keeps the block loop at one lane
/// width). A double in float's normal range rounds on its low
/// 29 mantissa bits, and the midpoint between two floats has exactly bit
/// 28 of them set; a float binade boundary is itself a float, so a move
/// across it cannot change the rounding. Zero, float subnormals, overflow,
/// infinities and NaN are outside the normal range and always count.
std::uint64_t near_float_tie(double d) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(d);
  const std::uint64_t exponent = (bits >> 52) & 0x7ff;
  const std::uint64_t dropped = bits & ((std::uint64_t{1} << 29) - 1);
  // Unsigned: true when the exponent is outside [2^-126, 2^127].
  const bool outside_normal = exponent - (1023 - 126) > 126 + 127;
  const bool near_midpoint = dropped - ((std::uint64_t{1} << 28) - kTieBand) <= 2 * kTieBand;
  return (outside_normal || near_midpoint) ? 1 : 0;
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
  const NormalPair pair = box_muller(draw_uniforms(*this));
  spare_ = pair.spare;
  has_spare_ = true;
  return pair.first;
}

double Rng::normal(double mean, double stddev) {
  MANDIPASS_EXPECTS(stddev >= 0.0);
  return scaled(mean, stddev, normal());
}

void Rng::normal_floats(std::span<float> out, double stddev) {
  MANDIPASS_EXPECTS(stddev >= 0.0);
  std::size_t next = 0;
  if (has_spare_ && !out.empty()) {
    out[next++] = static_cast<float>(normal(0.0, stddev));
  }
  double u1[kBlockPairs];
  double u2[kBlockPairs];
  double first[kBlockPairs];
  double spare[kBlockPairs];
  std::uint64_t tie[kBlockPairs];
  while (out.size() - next >= 2) {
    const std::size_t pairs = std::min(kBlockPairs, (out.size() - next) / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      const Uniforms u = draw_uniforms(*this);
      u1[p] = u.u1;
      u2[p] = u.u2;
    }
    // box_muller() and normal(0.0, stddev) on the fast kernels; this loop
    // vectorises.
    for (std::size_t p = 0; p < pairs; ++p) {
      const double mag = std::sqrt(-2.0 * common::fdlibm_log(u1[p]));
      double sin_t = 0.0;
      double cos_t = 0.0;
      common::fdlibm_sincos(2.0 * std::numbers::pi * u2[p], sin_t, cos_t);
      first[p] = scaled(0.0, stddev, mag * cos_t);
      spare[p] = scaled(0.0, stddev, mag * sin_t);
      tie[p] = near_float_tie(first[p]) | near_float_tie(spare[p]);
    }
    float* dst = out.data() + next;
    for (std::size_t p = 0; p < pairs; ++p) {
      dst[2 * p] = static_cast<float>(first[p]);
      dst[2 * p + 1] = static_cast<float>(spare[p]);
    }
    for (std::size_t p = 0; p < pairs; ++p) {
      if (tie[p] != 0) {
        const NormalPair exact = box_muller({u1[p], u2[p]});
        dst[2 * p] = static_cast<float>(scaled(0.0, stddev, exact.first));
        dst[2 * p + 1] = static_cast<float>(scaled(0.0, stddev, exact.spare));
      }
    }
    next += 2 * pairs;
  }
  if (next < out.size()) {
    out[next] = static_cast<float>(normal(0.0, stddev));
  }
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
