#include "tasklib/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numbers>

#include "common/error.hpp"

namespace vdce::tasklib {

using common::expects;

namespace {

// One complex value as a (re, im) pair of vector lanes.  GCC and Clang
// both accept this form on every target, so there is one butterfly.
typedef double Lane __attribute__((vector_size(16)));

// A twiddle w as the butterfly multiplies it: (wr, wr) and (-wi, wi).
struct Twiddle {
  Lane re;
  Lane im;
};

// std::complex<double> is only 8-byte aligned, so lanes go in and out
// of its (re, im) array view through memcpy, which compiles to
// unaligned loads and stores.
Lane load(const Complex* c) {
  Lane v;
  std::memcpy(&v, reinterpret_cast<const double*>(c), sizeof v);
  return v;
}

void store(Complex* c, Lane v) {
  std::memcpy(reinterpret_cast<double*>(c), &v, sizeof v);
}

/// What an n-point transform in one direction needs besides its data:
/// the bit-reversal table and every stage's twiddles, the stage with
/// half-length h at offset h - 1.
struct Plan {
  Plan(std::size_t n, bool inverse);

  std::vector<std::size_t> rev;
  std::vector<Twiddle> twiddles;
};

Plan::Plan(std::size_t n, bool inverse) : rev(n), twiddles(n - 1) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev[i] = j;
  }
  // Each stage's twiddles come from the recurrence w = 1, w *= wn: the
  // golden digests pin the bits it gives, which a closed form such as
  // std::polar would move.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Complex wn(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < half; ++k) {
      const double wr = w.real();
      const double wi = w.imag();
      twiddles[half - 1 + k] = {Lane{wr, wr}, Lane{-wi, wi}};
      w *= wn;
    }
  }
}

/// The plan for (n, inverse), built by the first caller.  Later callers
/// only read it, so concurrent transforms never wait on one another.
/// Plans are never freed: a transform still running on a parked pool
/// thread at exit cannot meet a destroyed one.
const Plan& plan_for(std::size_t n, bool inverse) {
  static std::array<std::once_flag, 128> built;
  static std::array<const Plan*, 128> plans{};
  const std::size_t slot =
      2 * static_cast<std::size_t>(std::countr_zero(n)) + (inverse ? 1 : 0);
  std::call_once(built[slot], [&] { plans[slot] = new Plan(n, inverse); });
  return *plans[slot];
}

/// The butterfly passes over `data` already in bit-reversed order.
/// v = b (wr, wr) + swap(b) (-wi, wi) = (br wr - bi wi, bi wr + br wi):
/// x + (-y) is x - y and IEEE addition commutes, so on finite input v
/// is the real-arithmetic product (br wr - bi wi, br wi + bi wr) bit for
/// bit.  No FMA contracts it: the build selects no target that has one.
void butterflies(const Plan& plan, Complex* data, std::size_t n) {
  for (std::size_t half = 1; half < n; half <<= 1) {
    const Twiddle* tw = plan.twiddles.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      Complex* top = data + i;
      Complex* bottom = top + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Lane b = load(bottom + k);
        const Lane v = b * tw[k].re + Lane{b[1], b[0]} * tw[k].im;
        const Lane u = load(top + k);
        store(top + k, u + v);
        store(bottom + k, u - v);
      }
    }
  }
}

}  // namespace

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
  const Plan& plan = plan_for(n, inverse);
  for (std::size_t i = 1; i < n; ++i) {
    if (i < plan.rev[i]) std::swap(data[i], data[plan.rev[i]]);
  }
  butterflies(plan, data.data(), n);
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
  const std::size_t n = next_pow2(data.size());
  const Plan& plan = plan_for(n, /*inverse=*/false);
  // Gathered straight into bit-reversed order, zero past the signal's
  // end: the same values the permutation of the padded copy would give.
  std::vector<Complex> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = plan.rev[i];
    c[i] = Complex(j < data.size() ? data[j] : 0.0, 0.0);
  }
  butterflies(plan, c.data(), n);
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
