// IIR filtering primitives.
//
// Section IV of the paper removes the low-frequency components produced by
// body movement (< 10 Hz, per its reference [17]) with a "high pass
// four-order Butterworth filter with a cutoff frequency of 20 Hz". We
// realise that filter as a cascade of two RBJ high-pass biquads with the
// 4th-order Butterworth Q values (0.5412, 1.3066).
#pragma once

#include <array>
#include <span>
#include <vector>

namespace mandipass::dsp {

/// One direct-form-I second-order section. Coefficients are normalised so
/// a0 == 1.
struct BiquadCoeffs {
  double b0 = 1.0;
  double b1 = 0.0;
  double b2 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
};

/// Designs an RBJ high-pass biquad for cutoff `fc` (Hz) at sample rate
/// `fs` (Hz) with quality factor `q`.
/// Precondition: 0 < fc < fs / 2 and q > 0.
BiquadCoeffs design_highpass_biquad(double fc, double fs, double q);

/// Designs an RBJ low-pass biquad (the stages of butterworth_lowpass4,
/// the simulator's sensor-bandwidth filter).
BiquadCoeffs design_lowpass_biquad(double fc, double fs, double q);

/// Stateful single-channel biquad. Process is O(1) per sample.
class Biquad {
 public:
  explicit Biquad(const BiquadCoeffs& coeffs) : c_(coeffs) {}

  double process(double x);

  /// Clears the delay line (between independent segments).
  void reset();

  const BiquadCoeffs& coeffs() const { return c_; }

 private:
  BiquadCoeffs c_;
  double x1_ = 0.0, x2_ = 0.0, y1_ = 0.0, y2_ = 0.0;
};

/// A cascade of second-order sections forming one higher-order IIR filter.
class SosFilter {
 public:
  explicit SosFilter(std::vector<BiquadCoeffs> sections);

  /// Builds the paper's filter: 4th-order Butterworth high-pass.
  /// Precondition: 0 < fc < fs / 2.
  static SosFilter butterworth_highpass4(double fc, double fs);

  /// 4th-order Butterworth low-pass (simulator anti-aliasing).
  static SosFilter butterworth_lowpass4(double fc, double fs);

  double process(double x);
  void reset();

  /// Filters a whole segment (fresh state, forward pass only — the paper
  /// filters causally on-device).
  std::vector<double> filter(std::span<const double> xs);

  /// Magnitude response |H(e^{j2*pi*f/fs})| at frequency f.
  double magnitude_at(double f, double fs) const;

  std::size_t section_count() const { return sections_.size(); }

 private:
  std::vector<Biquad> sections_;
};

}  // namespace mandipass::dsp
