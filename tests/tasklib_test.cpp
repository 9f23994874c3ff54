// Unit and property tests for the task libraries: matrix algebra, FFT,
// C3I kernels, payload encoding and the registry, plus the golden
// digest that pins the Fourier and streaming kernels bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tasklib/c3i.hpp"
#include "tasklib/fft.hpp"
#include "tasklib/matrix.hpp"
#include "tasklib/payload.hpp"
#include "tasklib/registry.hpp"
#include "tasklib/streaming.hpp"

namespace vdce::tasklib {
namespace {

using common::Rng;
using common::StateError;

// -------------------------------------------------------------- matrix

TEST(MatrixTest, IdentityMultiplication) {
  Rng rng(1);
  const auto a = Matrix::random(5, 5, rng);
  const auto i = Matrix::identity(5);
  EXPECT_EQ(multiply(a, i), a);
  EXPECT_EQ(multiply(i, a), a);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  a.data().assign(av, av + 6);
  b.data().assign(bv, bv + 6);
  const auto c = multiply(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(MatrixTest, MultiplyDimensionMismatch) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW((void)multiply(a, b), StateError);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(2);
  const auto a = Matrix::random(3, 7, rng);
  EXPECT_EQ(transpose(transpose(a)), a);
  EXPECT_DOUBLE_EQ(transpose(a).at(4, 2), a.at(2, 4));
}

TEST(LuTest, ReconstructsPA) {
  Rng rng(3);
  const std::size_t n = 8;
  const auto a = Matrix::random(n, n, rng, /*diag_boost=*/2.0);
  const auto f = lu_decompose(a);
  // Rebuild L and U, check L*U == P*A.
  Matrix l = Matrix::identity(n);
  Matrix u(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) l.at(i, j) = f.lu.at(i, j);
    for (std::size_t j = i; j < n; ++j) u.at(i, j) = f.lu.at(i, j);
  }
  const auto lu = multiply(l, u);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(lu.at(i, j), a.at(f.perm[i], j), 1e-9);
    }
  }
}

TEST(LuTest, SolveRecoversKnownSolution) {
  Rng rng(4);
  const std::size_t n = 16;
  const auto a = Matrix::random(n, n, rng, 4.0);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  const auto b = multiply(a, x_true);
  const auto x = lu_solve(lu_decompose(a), b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(LuTest, SingularMatrixThrows) {
  Matrix a(3, 3, 0.0);  // all zeros
  EXPECT_THROW((void)lu_decompose(a), StateError);
  Matrix b(2, 2);
  b.at(0, 0) = 1.0;
  b.at(0, 1) = 2.0;
  b.at(1, 0) = 2.0;
  b.at(1, 1) = 4.0;  // rank 1
  EXPECT_THROW((void)lu_decompose(b), StateError);
}

TEST(LuTest, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW((void)lu_decompose(a), StateError);
}

TEST(LuTest, PivotingHandlesZeroDiagonal) {
  // [[0, 1], [1, 0]] requires a row swap.
  Matrix a(2, 2);
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  const auto f = lu_decompose(a);
  const auto x = lu_solve(f, std::vector<double>{3.0, 5.0});
  EXPECT_NEAR(x[0], 5.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(InvertTest, InverseTimesOriginalIsIdentity) {
  Rng rng(5);
  const std::size_t n = 10;
  const auto a = Matrix::random(n, n, rng, 3.0);
  const auto inv = invert(a);
  const auto prod = multiply(a, inv);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(prod.at(i, j), i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(DeterminantTest, KnownValues) {
  Matrix a(2, 2);
  a.at(0, 0) = 3.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  EXPECT_NEAR(determinant(a), 10.0, 1e-12);
  EXPECT_NEAR(determinant(Matrix::identity(5)), 1.0, 1e-12);
}

TEST(ResidualTest, ExactSolutionHasTinyResidual) {
  Rng rng(6);
  const auto a = Matrix::random(12, 12, rng, 3.0);
  std::vector<double> x(12, 1.0);
  const auto b = multiply(a, x);
  EXPECT_LT(residual(a, x, b), 1e-12);
  // A perturbed solution has a visible residual.
  x[0] += 0.1;
  EXPECT_GT(residual(a, x, b), 1e-4);
}

// Property: solve works across sizes.
class LuSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuSizeSweep, SolveAccurate) {
  Rng rng(100 + GetParam());
  const std::size_t n = GetParam();
  const auto a = Matrix::random(n, n, rng, static_cast<double>(n));
  std::vector<double> x_true(n, 0.5);
  const auto b = multiply(a, x_true);
  const auto x = lu_solve(lu_decompose(a), b);
  EXPECT_LT(residual(a, x, b), 1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

TEST(CholeskyTest, ReconstructsSpd) {
  Rng rng(21);
  const auto a = random_spd(10, rng);
  const auto l = cholesky(a);
  const auto llt = multiply(l, transpose(l));
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(llt.at(i, j), a.at(i, j), 1e-9);
    }
  }
  // Strictly lower-triangular factor.
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(l.at(i, j), 0.0);
    }
  }
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = -1.0;  // negative eigenvalue
  EXPECT_THROW((void)cholesky(a), StateError);
  EXPECT_THROW((void)cholesky(Matrix(2, 3)), StateError);
}

TEST(JacobiSolveTest, ConvergesOnDominantSystem) {
  Rng rng(22);
  const auto a = Matrix::random(12, 12, rng, /*diag_boost=*/14.0);
  std::vector<double> x_true(12, 1.5);
  const auto b = multiply(a, x_true);
  const auto result = jacobi_solve(a, b, 1e-10, 500);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual, 1e-9);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(result.x[i], 1.5, 1e-7);
  }
}

TEST(JacobiSolveTest, ReportsNonConvergence) {
  // Not diagonally dominant: Jacobi diverges.
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 5.0;
  a.at(1, 0) = 5.0;
  a.at(1, 1) = 1.0;
  const auto result = jacobi_solve(a, {1.0, 1.0}, 1e-10, 50);
  EXPECT_FALSE(result.converged);
}

TEST(JacobiSolveTest, RejectsZeroDiagonal) {
  Matrix a(2, 2);
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  EXPECT_THROW((void)jacobi_solve(a, {1.0, 1.0}), StateError);
}

// ----------------------------------------------------------------- fft

TEST(FftTest, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(64), 64u);
}

TEST(FftTest, NonPow2Throws) {
  std::vector<Complex> v(6);
  EXPECT_THROW(fft_inplace(v), StateError);
}

TEST(FftTest, DeltaHasFlatSpectrum) {
  std::vector<Complex> v(8, {0.0, 0.0});
  v[0] = {1.0, 0.0};
  const auto spec = fft(v);
  for (const auto& c : spec) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, InverseRecovers) {
  Rng rng(7);
  std::vector<Complex> v(64);
  for (auto& c : v) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto rt = ifft(fft(v));
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(rt[i].real(), v[i].real(), 1e-10);
    EXPECT_NEAR(rt[i].imag(), v[i].imag(), 1e-10);
  }
}

TEST(FftTest, SinglePureToneSpectrum) {
  constexpr std::size_t kN = 128;
  constexpr double kFreq = 5.0;
  std::vector<double> signal(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    signal[i] = std::sin(2.0 * M_PI * kFreq * i / kN);
  }
  const auto power = power_spectrum(signal);
  // Peak exactly at bins 5 and N-5.
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < kN / 2; ++i) {
    if (power[i] > power[argmax]) argmax = i;
  }
  EXPECT_EQ(argmax, 5u);
  EXPECT_NEAR(power[5], power[kN - 5], 1e-6);
}

TEST(FftTest, ParsevalHolds) {
  Rng rng(8);
  std::vector<double> signal(256);
  for (auto& s : signal) s = rng.uniform(-1, 1);
  double time_energy = 0.0;
  for (double s : signal) time_energy += s * s;
  const auto power = power_spectrum(signal);
  double freq_energy = 0.0;
  for (double p : power) freq_energy += p;
  EXPECT_NEAR(freq_energy / signal.size(), time_energy, 1e-8);
}

TEST(FftTest, RealInputPadsToPow2) {
  std::vector<double> signal(100, 1.0);
  const auto spec = fft_real(signal);
  EXPECT_EQ(spec.size(), 128u);
}

TEST(FftTest, ConvolutionIdentity) {
  // Convolving with a delta returns the signal.
  std::vector<double> a{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> delta{1, 0, 0, 0, 0, 0, 0, 0};
  const auto c = circular_convolve(a, delta);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(c[i], a[i], 1e-10);
}

TEST(FftTest, ConvolutionMatchesDirect) {
  Rng rng(9);
  std::vector<double> a(16), b(16);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto fast = circular_convolve(a, b);
  for (std::size_t k = 0; k < 16; ++k) {
    double direct = 0.0;
    for (std::size_t j = 0; j < 16; ++j) {
      direct += a[j] * b[(k + 16 - j) % 16];
    }
    EXPECT_NEAR(fast[k], direct, 1e-9);
  }
}

TEST(LowpassTest, RemovesHighTonesKeepsLow) {
  constexpr std::size_t kN = 256;
  std::vector<double> low(kN), high(kN), mixed(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double t = static_cast<double>(i) / kN;
    low[i] = std::sin(2.0 * M_PI * 4.0 * t);    // bin 4 (kept)
    high[i] = std::sin(2.0 * M_PI * 100.0 * t); // bin 100 (cut)
    mixed[i] = low[i] + high[i];
  }
  const auto filtered = lowpass_filter(mixed, 0.25);  // cutoff bin 32
  double err = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    err = std::max(err, std::abs(filtered[i] - low[i]));
  }
  EXPECT_LT(err, 1e-9);
}

TEST(LowpassTest, FullBandIsIdentity) {
  std::vector<double> sig{1, 2, 3, 4, 5, 6, 7, 8};
  const auto out = lowpass_filter(sig, 1.0);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    EXPECT_NEAR(out[i], sig[i], 1e-10);
  }
}

TEST(LowpassTest, RejectsBadCutoff) {
  EXPECT_THROW((void)lowpass_filter({1, 2}, 0.0), StateError);
  EXPECT_THROW((void)lowpass_filter({1, 2}, 1.5), StateError);
}

// ------------------------------------------------- kernel bit-identity

std::vector<double> seeded_signal(Rng& rng, std::size_t n) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1, 1);
  return x;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

std::vector<std::uint64_t> bits_of(const std::vector<Complex>& v) {
  std::vector<std::uint64_t> out;
  for (const Complex c : v) {
    out.push_back(std::bit_cast<std::uint64_t>(c.real()));
    out.push_back(std::bit_cast<std::uint64_t>(c.imag()));
  }
  return out;
}

/// Folds a payload's full wire image (tag + big-endian body) into an
/// FNV-1a hash.
std::uint64_t fnv1a(std::uint64_t h, const Payload& p) {
  for (const std::byte b : p.to_wire()) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(KernelGolden, SeededOutputsKeepTheirWireBytes) {
  // One digest over the encoded outputs of every Fourier and streaming
  // kernel on seeded inputs, plus the matrix and LU payload images.  A
  // speedup must leave it unchanged: the kernels' outputs are pinned
  // bit for bit, not within a tolerance.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  Rng rng(2024);
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    std::vector<Complex> x(n);
    for (auto& c : x) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (const bool inverse : {false, true}) {
      auto y = x;
      fft_inplace(y, inverse);
      h = fnv1a(h, Payload::of_complex_vector(y));
    }
  }
  for (const std::size_t n : {1, 5, 64, 100, 1024, 1536, 3000}) {
    const auto x = seeded_signal(rng, n);
    h = fnv1a(h, Payload::of_vector(power_spectrum(x)));
    h = fnv1a(h, Payload::of_complex_vector(fft_real(x)));
    h = fnv1a(h, Payload::of_vector(lowpass_filter(x, 0.3)));
  }
  for (std::size_t n = 1; n <= 1024; n <<= 1) {
    const auto a = seeded_signal(rng, n);
    const auto b = seeded_signal(rng, n);
    h = fnv1a(h, Payload::of_vector(circular_convolve(a, b)));
  }
  for (const unsigned up : {1, 2, 3, 5}) {
    for (const unsigned down : {1, 2, 3, 4}) {
      for (const std::size_t taps : {7, 33, 56}) {
        const auto x = seeded_signal(rng, 1 + up * down * taps);
        const auto y = rational_resample(x, up, down, taps);
        h = fnv1a(h, Payload::of_vector(y));
      }
    }
  }
  // The four stream stages as perfbench runs them: 1024-sample windows.
  const auto& reg = builtin_registry();
  for (const std::uint64_t seed : {11, 12, 13}) {
    Rng stage_rng(seed);
    const TaskContext ctx{16.0, &stage_rng};
    const auto src = reg.run("stream_window_source", {}, ctx);
    const auto rs = reg.run("stream_resample", {src}, ctx);
    const auto spec = reg.run("stream_window_fft", {rs}, ctx);
    const auto sink = reg.run("stream_sink", {spec}, ctx);
    for (const Payload* p : {&src, &rs, &spec, &sink}) h = fnv1a(h, *p);
  }
  h = fnv1a(h, Payload::of_matrix(Matrix::random(5, 7, rng)));
  h = fnv1a(h, Payload::of_lu(lu_decompose(Matrix::random(6, 6, rng, 2.0))));
  EXPECT_EQ(h, 0xb75e3217a01122ceULL);
}

TEST(KernelGolden, FftMatchesANaiveDft) {
  constexpr std::size_t kN = 2048;
  Rng rng(31);
  std::vector<Complex> x(kN);
  for (auto& c : x) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  // W^(jk) indexed by jk mod N, so the O(N^2) sum needs N sin/cos pairs.
  std::vector<Complex> root(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double a = -2.0 * M_PI * static_cast<double>(i) / kN;
    root[i] = {std::cos(a), std::sin(a)};
  }
  const auto forward = fft(x);
  const auto inverse = ifft(x);
  for (std::size_t k = 0; k < kN; ++k) {
    Complex sum_f(0.0, 0.0), sum_i(0.0, 0.0);
    for (std::size_t j = 0; j < kN; ++j) {
      sum_f += x[j] * root[(j * k) % kN];
      sum_i += x[j] * std::conj(root[(j * k) % kN]);
    }
    sum_i /= static_cast<double>(kN);
    ASSERT_NEAR(forward[k].real(), sum_f.real(), 1e-9) << "bin " << k;
    ASSERT_NEAR(forward[k].imag(), sum_f.imag(), 1e-9) << "bin " << k;
    ASSERT_NEAR(inverse[k].real(), sum_i.real(), 1e-12) << "bin " << k;
    ASSERT_NEAR(inverse[k].imag(), sum_i.imag(), 1e-12) << "bin " << k;
  }
}

TEST(KernelGolden, PlansBuiltByRacingThreadsGiveTheSerialBits) {
  // No earlier test transforms 8192 or 16384 points, so eight threads
  // released by one barrier race to build each of those plans; half of
  // them start from the larger size, so two plans are built at once.
  constexpr std::size_t kThreads = 8;
  const std::vector<std::size_t> sizes{8192, 16384};
  Rng rng(33);
  std::vector<std::vector<Complex>> complex_in;
  std::vector<std::vector<double>> real_in;
  for (const std::size_t n : sizes) {
    std::vector<Complex> x(n);
    for (auto& c : x) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    complex_in.push_back(std::move(x));
    real_in.push_back(seeded_signal(rng, n * 3 / 4 + 1));  // padded to n
  }
  using Bits = std::vector<std::vector<std::uint64_t>>;
  const auto run = [&](bool larger_first) {
    Bits out(4 * sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const std::size_t i = larger_first ? sizes.size() - 1 - s : s;
      auto forward = complex_in[i];
      fft_inplace(forward, /*inverse=*/false);
      auto inverse = complex_in[i];
      fft_inplace(inverse, /*inverse=*/true);
      out[4 * i] = bits_of(forward);
      out[4 * i + 1] = bits_of(inverse);
      out[4 * i + 2] = bits_of(fft_real(real_in[i]));
      out[4 * i + 3] = bits_of(power_spectrum(real_in[i]));
    }
    return out;
  };
  std::barrier start(kThreads);
  std::vector<Bits> raced(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      raced[t] = run(t % 2 == 1);
    });
  }
  for (auto& th : threads) th.join();
  const Bits serial = run(false);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(raced[t], serial) << "thread " << t;
  }
}

/// Direct-form FIR over the materialised zero-stuffed signal, taps in
/// ascending order.  A stuffed zero adds h[k] * 0.0 = +-0.0 to a sum
/// that starts at +0.0 and so can never be -0.0: the zeros change no
/// bit, and the sum must equal the polyphase resampler's exactly.
std::vector<double> zero_stuffed_fir(const std::vector<double>& x,
                                     unsigned up, unsigned down,
                                     std::size_t taps) {
  if (x.empty()) return {};
  std::vector<double> stuffed(x.size() * up, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) stuffed[i * up] = x[i];
  auto h = windowed_sinc_fir(taps, 0.5 / std::max(up, down));
  for (double& v : h) v *= up;
  std::vector<double> out((stuffed.size() + down - 1) / down);
  for (std::size_t m = 0; m < out.size(); ++m) {
    const std::size_t pos = m * down;
    double acc = 0.0;
    for (std::size_t k = 0; k < taps && k <= pos; ++k) {
      if (pos - k < stuffed.size()) acc += h[k] * stuffed[pos - k];
    }
    out[m] = acc;
  }
  return out;
}

TEST(KernelGolden, ResamplerIsBitEqualToAZeroStuffedFir) {
  // Every (up, down) over {1, 2, 3, 5} x {1, 2, 3, 4}, which covers 3/2,
  // 2/3, 1/1 and 5/4.  Every length up to 130 puts each four-output
  // lockstep group at every offset from both ends of the signal; the
  // tap counts give phases with no tap, one tap and a partial last tap.
  std::vector<std::size_t> lengths(131);
  for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  lengths.push_back(1024);
  Rng rng(32);
  for (const unsigned up : {1, 2, 3, 5}) {
    for (const unsigned down : {1, 2, 3, 4}) {
      for (const std::size_t n : lengths) {
        const auto x = seeded_signal(rng, n);
        for (const std::size_t taps : {1, 2, 3, 7, 48, 49}) {
          EXPECT_EQ(bits_of(rational_resample(x, up, down, taps)),
                    bits_of(zero_stuffed_fir(x, up, down, taps)))
              << up << "/" << down << " n=" << n << " taps=" << taps;
        }
      }
    }
  }
}

// ----------------------------------------------------------------- c3i

TEST(C3iTest, ScenarioShape) {
  Rng rng(10);
  ScenarioParams params;
  params.num_targets = 3;
  params.clutter_per_scan = 5;
  const auto scans = generate_scenario(params, 4, 1.0, rng);
  ASSERT_EQ(scans.size(), 4u);
  for (const auto& scan : scans) EXPECT_EQ(scan.size(), 8u);
  EXPECT_DOUBLE_EQ(scans[2].front().time_s, 2.0);
}

TEST(C3iTest, DetectionSeparatesTargetsFromClutter) {
  Rng rng(11);
  ScenarioParams params;  // target intensity 10, clutter < 4
  const auto scans = generate_scenario(params, 3, 1.0, rng);
  for (const auto& scan : scans) {
    const auto dets = detect(scan, 5.0);
    EXPECT_EQ(dets.size(), params.num_targets);
  }
}

TEST(C3iTest, DetectThresholdBoundary) {
  std::vector<SensorReport> reports{{0, 0, 4.999, 0}, {0, 0, 5.0, 0}};
  EXPECT_EQ(detect(reports, 5.0).size(), 1u);
  EXPECT_EQ(detect(reports, 0.0).size(), 2u);
}

TEST(C3iTest, AssociationClaimsClosest) {
  Track t;
  t.id = 1;
  t.x = 0.0;
  t.y = 0.0;
  std::vector<Detection> dets{{5.0, 0.0, 9, 0}, {0.5, 0.0, 9, 0}};
  const auto assoc = associate({t}, dets, 2.0);
  ASSERT_TRUE(assoc.track_to_detection[0].has_value());
  EXPECT_EQ(*assoc.track_to_detection[0], 1u);
  ASSERT_EQ(assoc.unassociated.size(), 1u);
  EXPECT_EQ(assoc.unassociated[0], 0u);
}

TEST(C3iTest, AssociationRespectsGate) {
  Track t;
  t.id = 1;
  std::vector<Detection> dets{{50.0, 50.0, 9, 0}};
  const auto assoc = associate({t}, dets, 2.0);
  EXPECT_FALSE(assoc.track_to_detection[0].has_value());
  EXPECT_EQ(assoc.unassociated.size(), 1u);
}

TEST(C3iTest, TrackerInitiatesFromUnassociated) {
  std::uint32_t next_id = 1;
  FilterParams params;
  std::vector<Detection> dets{{1.0, 2.0, 9, 0.0}, {30.0, 40.0, 9, 0.0}};
  const auto tracks = track_update({}, dets, 0.0, params, next_id);
  EXPECT_EQ(tracks.size(), 2u);
  EXPECT_EQ(next_id, 3u);
}

TEST(C3iTest, TrackerDropsAfterMaxMisses) {
  std::uint32_t next_id = 1;
  FilterParams params;
  params.max_misses = 2;
  std::vector<Track> tracks =
      track_update({}, {{0.0, 0.0, 9, 0.0}}, 0.0, params, next_id);
  ASSERT_EQ(tracks.size(), 1u);
  // Miss repeatedly.
  for (int scan = 1; scan <= 3; ++scan) {
    tracks = track_update(tracks, {}, scan, params, next_id);
  }
  EXPECT_TRUE(tracks.empty());
}

TEST(C3iTest, TrackerConvergesOnStraightMover) {
  std::uint32_t next_id = 1;
  FilterParams params;
  std::vector<Track> tracks;
  // Target moves +1 km/s in x; perfect detections.
  for (int scan = 0; scan < 20; ++scan) {
    const double t = scan;
    tracks = track_update(
        tracks, {{1.0 * t, 5.0, 9.0, t}}, t, params, next_id);
    ASSERT_EQ(tracks.size(), 1u);
  }
  EXPECT_NEAR(tracks[0].x, 19.0, 0.5);
  EXPECT_NEAR(tracks[0].vx, 1.0, 0.2);
  EXPECT_NEAR(tracks[0].vy, 0.0, 0.2);
  EXPECT_EQ(tracks[0].hits, 20);
}

TEST(C3iTest, ThreatRankingOrders) {
  Track near_track;  // close to the defended point
  near_track.id = 1;
  near_track.x = 1.0;
  near_track.y = 0.0;
  Track far_track;
  far_track.id = 2;
  far_track.x = 90.0;
  far_track.y = 90.0;
  const auto threats = rank_threats({far_track, near_track}, 0.0, 0.0);
  ASSERT_EQ(threats.size(), 2u);
  EXPECT_EQ(threats[0].track_id, 1u);
  EXPECT_GT(threats[0].score, threats[1].score);
}

TEST(C3iTest, ClosingSpeedRaisesThreat) {
  Track inbound;
  inbound.id = 1;
  inbound.x = 10.0;
  inbound.vx = -1.0;  // heading for the origin
  Track outbound = inbound;
  outbound.id = 2;
  outbound.vx = +1.0;
  const auto threats = rank_threats({outbound, inbound}, 0.0, 0.0);
  EXPECT_EQ(threats[0].track_id, 1u);
}

TEST(C3iFuseTest, MergesNearbyReports) {
  std::vector<std::vector<SensorReport>> a{{{10.0, 10.0, 5.0, 0.0}}};
  std::vector<std::vector<SensorReport>> b{{{10.2, 10.0, 6.0, 0.0}}};
  const auto fused = fuse_scans(a, b, 0.5);
  ASSERT_EQ(fused.size(), 1u);
  ASSERT_EQ(fused[0].size(), 1u);  // merged into one
  EXPECT_NEAR(fused[0][0].x, 10.1, 1e-12);
  EXPECT_DOUBLE_EQ(fused[0][0].intensity, 11.0);  // reinforced
}

TEST(C3iFuseTest, KeepsDistantReports) {
  std::vector<std::vector<SensorReport>> a{{{10.0, 10.0, 5.0, 0.0}}};
  std::vector<std::vector<SensorReport>> b{{{50.0, 50.0, 6.0, 0.0}}};
  const auto fused = fuse_scans(a, b, 0.5);
  EXPECT_EQ(fused[0].size(), 2u);
}

TEST(C3iFuseTest, RejectsMismatchedScanCounts) {
  std::vector<std::vector<SensorReport>> a(2), b(3);
  EXPECT_THROW((void)fuse_scans(a, b), StateError);
}

TEST(C3iFuseTest, FusionImprovesDetection) {
  // Two noisy sensors, each below threshold alone; fused, the target
  // crosses it.
  std::vector<std::vector<SensorReport>> a{{{10.0, 10.0, 3.0, 0.0}}};
  std::vector<std::vector<SensorReport>> b{{{10.1, 10.0, 3.0, 0.0}}};
  EXPECT_TRUE(detect(a[0], 5.0).empty());
  const auto fused = fuse_scans(a, b);
  EXPECT_EQ(detect(fused[0], 5.0).size(), 1u);
}

// ------------------------------------------------------------- payload

TEST(PayloadTest, ScalarRoundTrip) {
  const auto p = Payload::of_scalar(2.75);
  EXPECT_EQ(p.type(), PayloadType::kScalar);
  EXPECT_DOUBLE_EQ(p.as_scalar(), 2.75);
}

TEST(PayloadTest, TypeMismatchThrows) {
  const auto p = Payload::of_scalar(1.0);
  EXPECT_THROW((void)p.as_matrix(), StateError);
  EXPECT_THROW((void)p.as_tracks(), StateError);
}

TEST(PayloadTest, MatrixRoundTrip) {
  Rng rng(12);
  const auto m = Matrix::random(4, 7, rng);
  EXPECT_EQ(Payload::of_matrix(m).as_matrix(), m);
}

TEST(PayloadTest, LuRoundTrip) {
  Rng rng(13);
  const auto f = lu_decompose(Matrix::random(6, 6, rng, 2.0));
  const auto rt = Payload::of_lu(f).as_lu();
  EXPECT_EQ(rt.lu, f.lu);
  EXPECT_EQ(rt.perm, f.perm);
  EXPECT_EQ(rt.perm_sign, f.perm_sign);
}

TEST(PayloadTest, ComplexVectorRoundTrip) {
  std::vector<Complex> v{{1, 2}, {-3, 4}};
  const auto rt = Payload::of_complex_vector(v).as_complex_vector();
  ASSERT_EQ(rt.size(), 2u);
  EXPECT_EQ(rt[0], v[0]);
  EXPECT_EQ(rt[1], v[1]);
}

TEST(PayloadTest, BulkPayloadsAreOneExactAllocation) {
  // Each bulk encoder knows its size before it writes, so its buffer
  // holds exactly its bytes rather than up to twice as many after
  // doubling growth.
  const auto exact = [](const Payload& p) {
    return p.bytes().capacity() == p.bytes().size();
  };
  Rng rng(14);
  for (const std::size_t n : {1u, 7u, 64u}) {
    const auto m = Matrix::random(n, n, rng, 2.0);
    const std::vector<Complex> c(n, Complex{1.0, -2.0});
    EXPECT_TRUE(exact(Payload::of_vector(m.data()))) << "n=" << n;
    EXPECT_TRUE(exact(Payload::of_matrix(m))) << "n=" << n;
    EXPECT_TRUE(exact(Payload::of_lu(lu_decompose(m)))) << "n=" << n;
    EXPECT_TRUE(exact(Payload::of_complex_vector(c))) << "n=" << n;
  }
}

TEST(PayloadTest, ReportScansRoundTrip) {
  std::vector<std::vector<SensorReport>> scans{
      {{1, 2, 3, 0}}, {}, {{4, 5, 6, 1}, {7, 8, 9, 1}}};
  EXPECT_EQ(Payload::of_report_scans(scans).as_report_scans(), scans);
}

TEST(PayloadTest, TracksAndThreatsRoundTrip) {
  std::vector<Track> tracks{{1, 2, 3, 4, 5, 6, 1, 9}};
  EXPECT_EQ(Payload::of_tracks(tracks).as_tracks(), tracks);
  std::vector<Threat> threats{{4, 0.5}, {2, 0.25}};
  EXPECT_EQ(Payload::of_threats(threats).as_threats(), threats);
}

TEST(PayloadTest, TextRoundTrip) {
  EXPECT_EQ(Payload::of_text("hello").as_text(), "hello");
}

TEST(PayloadTest, WireImageRoundTrip) {
  const auto p = Payload::of_vector({1.0, 2.0, 3.0});
  const auto wire = p.to_wire();
  const auto rt = Payload::from_wire(wire);
  EXPECT_EQ(rt.type(), PayloadType::kVector);
  EXPECT_EQ(rt.as_vector(), p.as_vector());
  // size_mb matches the body size.
  EXPECT_NEAR(p.size_mb() * 1024.0 * 1024.0,
              static_cast<double>(p.size_bytes()), 1e-9);
}

TEST(PayloadTest, BadWireImageThrows) {
  EXPECT_THROW((void)Payload::from_wire({}), common::ParseError);
  EXPECT_THROW((void)Payload::from_wire({std::byte{0xFF}}),
               common::ParseError);
}

TEST(PayloadTest, GarbageBodiesNeverEscapeParseError) {
  // Fuzz: a well-typed payload with a random body must either decode or
  // throw ParseError -- never size an allocation from a garbage count.
  Rng rng(71);
  for (std::uint8_t tag = 1; tag <= 10; ++tag) {
    for (int i = 0; i < 200; ++i) {
      std::vector<std::byte> wire = {std::byte{tag}};
      const std::size_t len = rng.uniform_int(64);
      for (std::size_t b = 0; b < len; ++b) {
        wire.push_back(
            std::byte{static_cast<std::uint8_t>(rng.uniform_int(256))});
      }
      // Half the bodies lead with all-ones counts.
      for (std::size_t b = 1; b < wire.size() && b <= 8 && i % 2 == 0; ++b) {
        wire[b] = std::byte{0xFF};
      }
      const Payload p = Payload::from_wire(wire);
      try {
        switch (p.type()) {
          case PayloadType::kScalar:
            (void)p.as_scalar();
            break;
          case PayloadType::kVector:
            (void)p.as_vector();
            break;
          case PayloadType::kMatrix:
            (void)p.as_matrix();
            break;
          case PayloadType::kLuFactors:
            (void)p.as_lu();
            break;
          case PayloadType::kComplexVector:
            (void)p.as_complex_vector();
            break;
          case PayloadType::kReportScans:
            (void)p.as_report_scans();
            break;
          case PayloadType::kDetectionScans:
            (void)p.as_detection_scans();
            break;
          case PayloadType::kTracks:
            (void)p.as_tracks();
            break;
          case PayloadType::kThreats:
            (void)p.as_threats();
            break;
          case PayloadType::kText:
            (void)p.as_text();
            break;
        }
      } catch (const common::ParseError&) {
        // the only acceptable failure
      } catch (const std::exception& e) {
        ADD_FAILURE() << to_string(p.type()) << " body of " << len
                      << " bytes escaped as: " << e.what();
      }
    }
  }
}

// ------------------------------------------------------------ registry

TEST(RegistryTest, BuiltinsPresent) {
  const auto& reg = builtin_registry();
  EXPECT_GE(reg.size(), 20u);
  const auto menus = reg.menus();
  EXPECT_NE(std::find(menus.begin(), menus.end(), "matrix"), menus.end());
  EXPECT_NE(std::find(menus.begin(), menus.end(), "fourier"), menus.end());
  EXPECT_NE(std::find(menus.begin(), menus.end(), "c3i"), menus.end());
  EXPECT_NE(std::find(menus.begin(), menus.end(), "synthetic"), menus.end());
}

TEST(RegistryTest, MenuGrouping) {
  const auto& reg = builtin_registry();
  const auto matrix_tasks = reg.tasks_in_menu("matrix");
  EXPECT_NE(std::find(matrix_tasks.begin(), matrix_tasks.end(),
                      "lu_decomposition"),
            matrix_tasks.end());
  EXPECT_TRUE(reg.tasks_in_menu("nonexistent").empty());
}

TEST(RegistryTest, DuplicateRejected) {
  TaskRegistry reg;
  register_builtin_tasks(reg);
  EXPECT_THROW(register_builtin_tasks(reg), StateError);
}

TEST(RegistryTest, UnknownTaskThrows) {
  EXPECT_THROW((void)builtin_registry().get("warp_drive"),
               common::NotFoundError);
}

TEST(RegistryTest, ArityEnforced) {
  const auto& reg = builtin_registry();
  Rng rng(14);
  TaskContext ctx{1.0, &rng};
  // lu_decomposition needs exactly one input.
  EXPECT_THROW((void)reg.run("lu_decomposition", {}, ctx), StateError);
  const auto m = Payload::of_matrix(Matrix::identity(4));
  EXPECT_THROW((void)reg.run("lu_decomposition", {m, m}, ctx), StateError);
}

TEST(RegistryTest, InstallDefaultsPopulatesDb) {
  repo::TaskPerformanceDb db;
  builtin_registry().install_defaults(db);
  EXPECT_EQ(db.size(), builtin_registry().size());
  EXPECT_GT(db.get("matrix_inversion").base_time_s,
            db.get("matrix_transpose").base_time_s);
}

TEST(RegistryTest, LinearSolverPipelineComputesCorrectly) {
  const auto& reg = builtin_registry();
  Rng rng(15);
  TaskContext ctx{0.5, &rng};  // 16x16

  const auto a = reg.run("matrix_generate", {}, ctx);
  const auto b = reg.run("vector_generate", {}, ctx);
  const auto lu = reg.run("lu_decomposition", {a}, ctx);
  const auto low = reg.run("lu_lower", {lu}, ctx);
  const auto up = reg.run("lu_upper", {lu}, ctx);
  const auto li = reg.run("matrix_inversion", {low}, ctx);
  const auto ui = reg.run("matrix_inversion", {up}, ctx);
  const auto pb = reg.run("permute_vector", {lu, b}, ctx);
  const auto y = reg.run("matrix_vector_multiply", {li, pb}, ctx);
  const auto x = reg.run("matrix_vector_multiply", {ui, y}, ctx);
  const auto res = reg.run("residual_check", {a, x, b}, ctx);
  EXPECT_LT(res.as_scalar(), 1e-9);
}

TEST(RegistryTest, DirectSolveAgreesWithFactoredPath) {
  const auto& reg = builtin_registry();
  Rng rng(16);
  TaskContext ctx{0.5, &rng};
  const auto a = reg.run("matrix_generate", {}, ctx);
  const auto b = reg.run("vector_generate", {}, ctx);
  const auto x1 = reg.run("linear_solve", {a, b}, ctx);
  const auto lu = reg.run("lu_decomposition", {a}, ctx);
  const auto x2 = reg.run("triangular_solve", {lu, b}, ctx);
  const auto v1 = x1.as_vector();
  const auto v2 = x2.as_vector();
  ASSERT_EQ(v1.size(), v2.size());
  for (std::size_t i = 0; i < v1.size(); ++i) EXPECT_NEAR(v1[i], v2[i], 1e-9);
}

TEST(RegistryTest, C3iChainProducesThreats) {
  const auto& reg = builtin_registry();
  Rng rng(17);
  TaskContext ctx{1.0, &rng};
  const auto scans = reg.run("sensor_ingest", {}, ctx);
  const auto dets = reg.run("target_detect", {scans}, ctx);
  const auto tracks = reg.run("track_filter", {dets}, ctx);
  const auto threats = reg.run("threat_rank", {tracks}, ctx);
  EXPECT_FALSE(threats.as_threats().empty());
  const auto summary = reg.run("c3i_display", {threats}, ctx);
  EXPECT_NE(summary.as_text().find("threats="), std::string::npos);
}

TEST(RegistryTest, SourceScalesWithInputSize) {
  const auto& reg = builtin_registry();
  Rng rng(18);
  TaskContext small{0.5, &rng};
  TaskContext large{2.0, &rng};
  const auto a = reg.run("synth_source", {}, small);
  const auto b = reg.run("synth_source", {}, large);
  EXPECT_LT(a.size_bytes(), b.size_bytes());
}

TEST(RegistryTest, DeterministicGivenSeed) {
  const auto& reg = builtin_registry();
  Rng r1(42), r2(42);
  TaskContext c1{1.0, &r1}, c2{1.0, &r2};
  const auto a = reg.run("matrix_generate", {}, c1);
  const auto b = reg.run("matrix_generate", {}, c2);
  EXPECT_EQ(a.as_matrix(), b.as_matrix());
}

}  // namespace
}  // namespace vdce::tasklib
