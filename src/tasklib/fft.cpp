#include "tasklib/fft.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace vdce::tasklib {

using common::expects;

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  expects(n >= 1, "next_pow2 of zero");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  expects(is_pow2(n), "FFT size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterfly passes.  Each stage tabulates its twiddles once by the
  // recurrence w = 1, w *= wn, and the butterfly multiplies in real
  // arithmetic: on finite input that is std::complex's product bit for
  // bit, without its NaN-recovery branch (see fft.hpp).  The two rows
  // are walked through pointers: indexing `data` inside the loop made
  // GCC 12 emit code six times slower.
  std::vector<Complex> twiddle(n / 2);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Complex wn(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < half; ++k) {
      twiddle[k] = w;
      w *= wn;
    }
    for (std::size_t i = 0; i < n; i += len) {
      Complex* top = data.data() + i;
      Complex* bottom = top + half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = twiddle[k].real();
        const double wi = twiddle[k].imag();
        const double br = bottom[k].real();
        const double bi = bottom[k].imag();
        const double vr = br * wr - bi * wi;
        const double vi = br * wi + bi * wr;
        const double ur = top[k].real();
        const double ui = top[k].imag();
        top[k] = Complex(ur + vr, ui + vi);
        bottom[k] = Complex(ur - vr, ui - vi);
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (Complex& c : data) c *= scale;
  }
}

std::vector<Complex> fft(const std::vector<Complex>& data) {
  auto out = data;
  fft_inplace(out, /*inverse=*/false);
  return out;
}

std::vector<Complex> ifft(const std::vector<Complex>& data) {
  auto out = data;
  fft_inplace(out, /*inverse=*/true);
  return out;
}

std::vector<Complex> fft_real(const std::vector<double>& data) {
  expects(!data.empty(), "fft_real of empty signal");
  std::vector<Complex> c(next_pow2(data.size()), Complex(0.0, 0.0));
  for (std::size_t i = 0; i < data.size(); ++i) c[i] = Complex(data[i], 0.0);
  fft_inplace(c, /*inverse=*/false);
  return c;
}

std::vector<double> power_spectrum(const std::vector<double>& signal) {
  const auto spec = fft_real(signal);
  std::vector<double> out(spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) out[i] = std::norm(spec[i]);
  return out;
}

std::vector<double> lowpass_filter(const std::vector<double>& signal,
                                   double cutoff_fraction) {
  expects(cutoff_fraction > 0.0 && cutoff_fraction <= 1.0,
          "cutoff fraction must be in (0, 1]");
  auto spectrum = fft_real(signal);
  const std::size_t n = spectrum.size();
  // Bins [0, cutoff] and the mirrored tail are kept; the middle zeroed.
  const auto cutoff =
      static_cast<std::size_t>(cutoff_fraction * static_cast<double>(n) / 2);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t distance = std::min(k, n - k);  // from DC
    if (distance > cutoff) spectrum[k] = Complex(0.0, 0.0);
  }
  fft_inplace(spectrum, /*inverse=*/true);
  std::vector<double> out(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    out[i] = spectrum[i].real();
  }
  return out;
}

std::vector<double> circular_convolve(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  expects(a.size() == b.size(), "circular_convolve size mismatch");
  expects(is_pow2(a.size()), "circular_convolve size must be a power of two");
  std::vector<Complex> fa(a.size()), fb(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    fa[i] = Complex(a[i], 0.0);
    fb[i] = Complex(b[i], 0.0);
  }
  fft_inplace(fa, false);
  fft_inplace(fb, false);
  for (std::size_t i = 0; i < fa.size(); ++i) fa[i] *= fb[i];
  fft_inplace(fa, true);
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = fa[i].real();
  return out;
}

}  // namespace vdce::tasklib
