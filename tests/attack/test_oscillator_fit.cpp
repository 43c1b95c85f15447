// Mimicry-fit convergence on synthetic victims with known oscillator
// parameters: the AR(2) least-squares identification (attack/oscillator_fit)
// must recover (omega_n, zeta+, zeta-) from clean free-decay traces of
// vibration::MandibleOscillator, degrade gracefully on garbage, and
// sharpen as observations pool.
#include "attack/oscillator_fit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "imu/types.h"
#include "vibration/oscillator.h"
#include "vibration/population.h"
#include "vibration/profile.h"
#include "vibration/session.h"

namespace mandipass::attack {
namespace {

// A profile with a well-separated damping asymmetry and a mid-range
// resonance, integrated well above Nyquist concerns.
vibration::PersonProfile known_person() {
  vibration::PersonProfile p;
  p.mass_kg = 0.2;
  p.k1 = 2.0e4;
  p.k2 = 2.5e4;  // natural freq ~ 75.5 Hz
  p.c1 = 4.0;    // zeta+ ~ 0.0211
  p.c2 = 12.0;   // zeta- ~ 0.0632
  return p;
}

// Free decay: impulse force, then silence.
std::vector<double> free_decay(const vibration::PersonProfile& person, double fs,
                               std::size_t samples) {
  std::vector<double> force(samples, 0.0);
  force[0] = 50.0;
  const vibration::MandibleOscillator osc(person);
  return osc.integrate(force, fs).displacement;
}

// A damped 100 Hz burst sampled at 2 kHz on accelerometer axis 0, over a
// DC offset and with the other axes still: what fit_observation windows.
constexpr std::size_t kBurstOnset = 300;

imu::RawRecording damped_burst() {
  constexpr double kFs = 2000.0;
  constexpr std::size_t kSamples = 1200;
  const double omega_n = 2.0 * std::numbers::pi * 100.0;
  const double zeta = 0.05;
  const double omega_d = omega_n * std::sqrt(1.0 - zeta * zeta);
  imu::RawRecording rec;
  rec.sample_rate_hz = kFs;
  rec.axes[0].assign(kSamples, 0.3);
  rec.axes[1].assign(kSamples, 0.0);
  rec.axes[2].assign(kSamples, 9.81);
  for (std::size_t i = kBurstOnset; i < kSamples; ++i) {
    const double t = static_cast<double>(i - kBurstOnset) / kFs;
    rec.axes[0][i] += std::exp(-zeta * omega_n * t) * std::sin(omega_d * t);
  }
  return rec;
}

TEST(OscillatorFit, FitObservationSkipsANonFiniteSample) {
  // One NaN inside the burst (a dropped sensor sample) is skipped by the
  // energy, envelope and window-mean passes instead of poisoning them, so
  // the fit stays valid and lands within 0.1 % of the clean fit.
  imu::RawRecording rec = damped_burst();
  const OscillatorEstimate clean = fit_observation(rec);
  ASSERT_TRUE(clean.valid);
  EXPECT_NEAR(clean.natural_freq_hz, 100.0, 1.0);
  rec.axes[0][kBurstOnset + 50] = std::numeric_limits<double>::quiet_NaN();
  const OscillatorEstimate holed = fit_observation(rec);
  ASSERT_TRUE(holed.valid);
  EXPECT_NEAR(holed.natural_freq_hz, clean.natural_freq_hz, 1e-3 * clean.natural_freq_hz);
}

TEST(OscillatorFit, RecoversNaturalFrequencyFromCleanDecay) {
  const auto person = known_person();
  const double fs = 2000.0;
  const auto trace = free_decay(person, fs, 800);
  const OscillatorEstimate est = fit_trace(trace, fs);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.natural_freq_hz, person.natural_freq_hz(),
              0.05 * person.natural_freq_hz());
}

TEST(OscillatorFit, RecoversDampingAsymmetryOrdering) {
  const auto person = known_person();
  const double fs = 2000.0;
  const auto trace = free_decay(person, fs, 800);
  const OscillatorEstimate est = fit_trace(trace, fs);
  ASSERT_TRUE(est.valid);
  // The sign-split fits must see through the phase switching: c2 > c1
  // by 3x, so the fitted negative-phase damping must dominate.
  EXPECT_GT(est.zeta_negative, est.zeta_positive);
  // And both land within a factor-2 band of truth — the switch-point
  // contamination bounds how sharp a per-phase fit can be.
  EXPECT_GT(est.zeta_positive, 0.5 * person.zeta_positive());
  EXPECT_LT(est.zeta_positive, 2.0 * person.zeta_positive());
  EXPECT_GT(est.zeta_negative, 0.5 * person.zeta_negative());
  EXPECT_LT(est.zeta_negative, 2.0 * person.zeta_negative());
}

TEST(OscillatorFit, RejectsDegenerateTraces) {
  const double fs = 1000.0;
  EXPECT_FALSE(fit_trace(std::vector<double>(200, 3.5), fs).valid);  // constant
  std::vector<double> ramp(200);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<double>(i);
  EXPECT_FALSE(fit_trace(ramp, fs).valid);  // real poles, no oscillation
  EXPECT_FALSE(fit_trace(std::vector<double>(4, 1.0), fs).valid);  // too short
  std::vector<double> poisoned = free_decay(known_person(), fs, 64);
  for (auto& v : poisoned) v = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(fit_trace(poisoned, fs).valid);  // nothing finite to fit
}

TEST(OscillatorFit, PoolingNoisyObservationsConvergesTowardTruth) {
  const auto person = known_person();
  const double fs = 2000.0;
  const double truth = person.natural_freq_hz();
  Rng rng(424242);

  // Each observation is the clean decay plus deterministic measurement
  // noise; pooling more of them must not move the estimate away from
  // truth (fixed seed makes this exact, no statistical flake).
  const auto clean = free_decay(person, fs, 600);
  std::vector<OscillatorEstimate> fits;
  double err_first = -1.0;
  for (std::size_t obs = 0; obs < 8; ++obs) {
    std::vector<double> noisy = clean;
    for (auto& v : noisy) v += 2e-6 * rng.normal();
    fits.push_back(fit_trace(noisy, fs));
    ASSERT_TRUE(fits.back().valid);
    if (obs == 0) {
      err_first = std::abs(fits.back().natural_freq_hz - truth);
    }
  }
  const OscillatorEstimate pooled = pool_estimates(fits);
  ASSERT_TRUE(pooled.valid);
  const double err_pooled = std::abs(pooled.natural_freq_hz - truth);
  EXPECT_LE(err_pooled, err_first + 1e-9);
  EXPECT_NEAR(pooled.natural_freq_hz, truth, 0.05 * truth);
}

TEST(OscillatorFit, PoolSkipsInvalidAndWeighsByCount) {
  OscillatorEstimate a{100.0, 0.05, 0.06, 100.0, true};
  OscillatorEstimate b{200.0, 0.15, 0.18, 300.0, true};
  OscillatorEstimate bad;  // invalid: must be ignored
  const std::vector<OscillatorEstimate> fits{a, bad, b};
  const OscillatorEstimate pooled = pool_estimates(fits);
  ASSERT_TRUE(pooled.valid);
  EXPECT_NEAR(pooled.natural_freq_hz, (100.0 * 100.0 + 200.0 * 300.0) / 400.0, 1e-9);
  EXPECT_NEAR(pooled.weight, 400.0, 1e-12);
  EXPECT_FALSE(pool_estimates(std::vector<OscillatorEstimate>{bad}).valid);
  EXPECT_FALSE(pool_estimates(std::vector<OscillatorEstimate>{}).valid);
}

TEST(OscillatorFit, FitObservationHandlesRealSessions) {
  // Against full synthetic sessions (forced response, sensor noise,
  // 350 Hz sampling) the fit cannot be exact — but it must be total:
  // never throw, and deliver at least one usable estimate across a
  // handful of observations, with the frequency inside the plausible
  // human band.
  Rng rng(99);
  vibration::PopulationGenerator pop(555);
  vibration::SessionRecorder recorder(pop.sample(), rng);
  std::size_t usable = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto rec = recorder.record(vibration::SessionConfig{});
    const OscillatorEstimate est = fit_observation(rec);
    if (est.valid) {
      ++usable;
      EXPECT_GT(est.natural_freq_hz, 5.0);
      EXPECT_LT(est.natural_freq_hz, 175.0);  // Nyquist of the 350 Hz stream
    }
  }
  EXPECT_GE(usable, 1u);
}

}  // namespace
}  // namespace mandipass::attack
