// Branch-free fdlibm log, sin and cos for the batched Box-Muller draw
// (Rng::normal_floats).
//
// Each kernel is a straight line of IEEE double arithmetic and 64-bit
// integer bit operations: every data-dependent branch of fdlibm is folded
// into its general formula or turned into a select, so a loop over these
// calls vectorises under the tree's strict floating-point model. They are
// not libm. Each stays within 2 ulp of glibc over the Box-Muller domain
// (tests/common/test_rng.cpp pins this), and Rng::normal_floats hands
// every draw whose float rounding that gap could change back to libm, so
// libm still defines every value the generator returns.
//
// Derived from fdlibm 5.3 (e_log.c, k_sin.c, k_cos.c, e_rem_pio2.c):
//   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//   Developed at SunPro, a Sun Microsystems, Inc. business.
//   Permission to use, copy, modify, and distribute this
//   software is freely granted, provided that this notice
//   is preserved.
#pragma once

#include <bit>
#include <cstdint>

namespace mandipass::common {

/// log(x) for a positive normal double x (fdlibm e_log.c).
///
/// x = 2^k * (1 + f) with 1 + f in [sqrt(2)/2, sqrt(2)), and
/// log(1 + f) = f - (hfsq - s * (hfsq + R)), s = f / (2 + f), hfsq = f^2 / 2,
/// R a degree-14 polynomial in s. fdlibm's |f| < 2^-20 and k == 0 special
/// cases are folded into this formula, and the hfsq form (fdlibm's more
/// accurate one) is used for every f. Zero, negative, subnormal, infinite
/// and NaN inputs are outside the domain.
inline double fdlibm_log(double x) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3FE62E42FEE00000
  constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3DEA39EF35793C76
  constexpr double kLg1 = 6.666666666666735130e-01;      // 0x3FE5555555555593
  constexpr double kLg2 = 3.999999999940941908e-01;      // 0x3FD999999997FA04
  constexpr double kLg3 = 2.857142874366239149e-01;      // 0x3FD2492494229359
  constexpr double kLg4 = 2.222219843214978396e-01;      // 0x3FCC71C51D8E78AF
  constexpr double kLg5 = 1.818357216161805012e-01;      // 0x3FC7466496CB03DE
  constexpr double kLg6 = 1.531383769920937332e-01;      // 0x3FC39A09D078C69F
  constexpr double kLg7 = 1.479819860511658591e-01;      // 0x3FC2F112DF3E5244
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t hx = (bits >> 32) & 0x000fffff;  // top 20 mantissa bits
  // i = 2^20 when the mantissa is at least sqrt(2): then 1 + f = mantissa / 2.
  const std::uint64_t i = (hx + 0x95f64) & 0x100000;
  const double m = std::bit_cast<double>(((hx | (i ^ 0x3ff00000)) << 32) | (bits & 0xffffffff));
  // k as a double without an int-to-double conversion: the biased exponent
  // lands in the low mantissa bits of 1.5 * 2^52, whose ulp is 1.
  const std::uint64_t biased_k = (bits >> 52) + (i >> 20);
  const double dk = std::bit_cast<double>(0x4338000000000000ULL + biased_k) - (0x1.8p52 + 1023.0);
  const double f = m - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

/// sin(x) and cos(x) for |x| <= 2 pi, the Box-Muller angle's range
/// (fdlibm k_sin.c and k_cos.c after a Cody-Waite reduction by pi/2).
///
/// x = n * pi/2 + (y0 + y1): n is x * 2/pi rounded to nearest, and pi/2 is
/// split into three 33-bit pieces plus a tail, so each n * piece is exact
/// and the reduced argument keeps its relative accuracy next to every
/// multiple of pi/2 in range. The kernels take the tail y1 on every path,
/// and the quadrant n mod 4 selects and negates their results by bit
/// operations.
inline void fdlibm_sincos(double x, double& sin_x, double& cos_x) {
  constexpr double kInvPio2 = 6.36619772367581382433e-01;  // 0x3FE45F306DC9C883
  constexpr double kPio2_1 = 1.57079632673412561417e+00;   // 0x3FF921FB54400000
  constexpr double kPio2_2 = 6.07710050630396597660e-11;   // 0x3DD0B4611A600000
  constexpr double kPio2_3 = 2.02226624871116645580e-21;   // 0x3BA3198A2E000000
  constexpr double kPio2_3t = 8.47842766036889956997e-32;  // 0x397B839A252049C1
  constexpr double kS1 = -1.66666666666666324348e-01;      // 0xBFC5555555555549
  constexpr double kS2 = 8.33333333332248946124e-03;       // 0x3F8111111110F8A6
  constexpr double kS3 = -1.98412698298579493134e-04;      // 0xBF2A01A019C161D5
  constexpr double kS4 = 2.75573137070700676789e-06;       // 0x3EC71DE357B1FE7D
  constexpr double kS5 = -2.50507602534068634195e-08;      // 0xBE5AE5E68A2B9CEB
  constexpr double kS6 = 1.58969099521155010221e-10;       // 0x3DE5D93A5ACFD57C
  constexpr double kC1 = 4.16666666666666019037e-02;       // 0x3FA555555555554C
  constexpr double kC2 = -1.38888888888741095749e-03;      // 0xBF56C16C16C15177
  constexpr double kC3 = 2.48015872894767294178e-05;       // 0x3EFA01A019CB1590
  constexpr double kC4 = -2.75573143513906633035e-07;      // 0xBE927E4F809C52AD
  constexpr double kC5 = 2.08757232129817482790e-09;       // 0x3E21EE9EBDB4B1C4
  constexpr double kC6 = -1.13596475577881948265e-11;      // 0xBDA8FAE9BE8838D4
  constexpr double kRoundShift = 0x1.8p52;  // adding it rounds to an integer

  // n = round(x * 2/pi); its low bits are the quadrant.
  const double shifted = x * kInvPio2 + kRoundShift;
  const double fn = shifted - kRoundShift;
  const std::uint64_t quadrant = std::bit_cast<std::uint64_t>(shifted) & 3;
  // a = x - n * pio2_1 is exact (Sterbenz); a - n * pio2_2 is split into
  // hi + err exactly (Knuth's TwoSum), and the smaller pieces join err.
  const double a = x - fn * kPio2_1;
  const double b = fn * kPio2_2;
  const double hi = a - b;
  const double t = hi - a;
  const double err = (a - (hi - t)) - (b + t);
  const double lo = (err - fn * kPio2_3) - fn * kPio2_3t;
  const double y0 = hi + lo;
  const double y1 = lo - (y0 - hi);

  const double z = y0 * y0;
  // k_sin.c with its tail (iy = 1); for |y0| < 2^-27 this is y0 + y1.
  const double v = z * y0;
  const double rs = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const double ks = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * kS1);
  // k_cos.c: cos = (1 - qx) - ((z/2 - qx) - (z * r - y0 * y1)), where qx is
  // 0 below |y0| = 0.3, 0.28125 above 0.78125, else |y0| / 4 cut to its
  // high word, so that 1 - qx is exact.
  const std::uint64_t abs_bits = std::bit_cast<std::uint64_t>(y0) & 0x7fffffffffffffffULL;
  const double ay = std::bit_cast<double>(abs_bits);
  const double quarter = std::bit_cast<double>((abs_bits & 0xffffffff00000000ULL) - 0x0020000000000000ULL);
  const double qx = ay < 0.3 ? 0.0 : (ay > 0.78125 ? 0.28125 : quarter);
  const double rc = z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double kc = (1.0 - qx) - ((0.5 * z - qx) - (z * rc - y0 * y1));

  // Quadrants 1 and 3 swap the kernels; sin is negated in 2 and 3, cos in
  // 1 and 2 (fdlibm s_sin.c / s_cos.c).
  const std::uint64_t ks_bits = std::bit_cast<std::uint64_t>(ks);
  const std::uint64_t kc_bits = std::bit_cast<std::uint64_t>(kc);
  const std::uint64_t swap = (ks_bits ^ kc_bits) & (0 - (quadrant & 1));
  sin_x = std::bit_cast<double>((ks_bits ^ swap) ^ ((quadrant & 2) << 62));
  cos_x = std::bit_cast<double>((kc_bits ^ swap) ^ (((quadrant + 1) & 2) << 62));
}

}  // namespace mandipass::common
