// Radix-2 FFT and spectral helpers: a test instrument. The FFT tests and
// the vibration tests that check the simulator's spectra (the glottal
// fundamental, the activity artifact's band, the feasibility model's
// resonance) use it; no library code does.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace mandipass::dsp {

/// In-place iterative radix-2 Cooley-Tukey FFT.
/// Precondition: xs.size() is a power of two (and non-zero).
void fft_inplace(std::vector<std::complex<double>>& xs);

/// Inverse FFT (conjugate trick). Same precondition.
void ifft_inplace(std::vector<std::complex<double>>& xs);

/// Zero-pads the real input to the next power of two and returns its FFT.
std::vector<std::complex<double>> fft_real(std::span<const double> xs);

/// One-sided magnitude spectrum of a real signal: |X_k| for
/// k in [0, N/2], where N is the padded length.
std::vector<double> magnitude_spectrum(std::span<const double> xs);

/// One-sided power spectrum |X_k|^2 / N.
std::vector<double> power_spectrum(std::span<const double> xs);

/// Frequency (Hz) of bin k for a padded length N at sample rate fs.
double bin_frequency(std::size_t k, std::size_t padded_n, double fs);

/// Smallest power of two >= n (n == 0 maps to 1).
std::size_t next_pow2(std::size_t n);

/// Index of the dominant (largest-magnitude) non-DC bin of the one-sided
/// spectrum; used by the baselines' crude pitch estimate.
std::size_t dominant_bin(std::span<const double> one_sided_magnitude);

}  // namespace mandipass::dsp
