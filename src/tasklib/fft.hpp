// Fourier-analysis kernels for the "Fourier analysis" task library menu.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace vdce::tasklib {

using Complex = std::complex<double>;

/// In-place radix-2 Cooley-Tukey FFT.  `data.size()` must be a power of
/// two (throws StateError otherwise).  `inverse` selects the inverse
/// transform (including the 1/N scaling).
///
/// Every transform runs from one immutable plan per (size, direction):
/// the bit-reversal table and every stage's twiddles, built by the first
/// call and only read after, so concurrent calls never wait on one
/// another.  A plan holds about 40 bytes per point and lives for the
/// process.
///
/// The butterflies work on (re, im) lane pairs, with each twiddle stored
/// as (wr, wr) and (-wi, wi), and compile without FMA.  On finite input
/// every output bit equals std::complex multiplication's.  With a +-inf
/// or NaN sample the same bins come out non-finite, but which of them
/// read inf and which NaN can differ, because std::complex's product
/// recovers infinities (C Annex G) and the lane product does not: over
/// 300 seeded 1536-sample windows with one such sample, the inf/NaN
/// split of the power spectrum changed in 199 and the set of non-finite
/// bins in none.
void fft_inplace(std::vector<Complex>& data, bool inverse = false);

/// Out-of-place forward FFT.
[[nodiscard]] std::vector<Complex> fft(const std::vector<Complex>& data);

/// Out-of-place inverse FFT (with 1/N scaling).
[[nodiscard]] std::vector<Complex> ifft(const std::vector<Complex>& data);

/// Real-input convenience wrapper: zero imaginary parts, pads to the
/// next power of two with zeros.  The samples are gathered straight into
/// bit-reversed order.
[[nodiscard]] std::vector<Complex> fft_real(const std::vector<double>& data);

/// |X_k|^2 for each bin of the forward transform of a real signal.
[[nodiscard]] std::vector<double> power_spectrum(
    const std::vector<double>& signal);

/// Circular convolution of two equal-length power-of-two sequences via
/// the convolution theorem.
[[nodiscard]] std::vector<double> circular_convolve(
    const std::vector<double>& a, const std::vector<double>& b);

/// Ideal low-pass filter via the frequency domain: zeroes every bin
/// above `cutoff_fraction` of the Nyquist band and transforms back.
/// The input is zero-padded to a power of two; the result keeps the
/// original length.  cutoff_fraction must lie in (0, 1].
[[nodiscard]] std::vector<double> lowpass_filter(
    const std::vector<double>& signal, double cutoff_fraction);

/// Smallest power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// True iff n is a power of two (n >= 1).
[[nodiscard]] bool is_pow2(std::size_t n);

}  // namespace vdce::tasklib
