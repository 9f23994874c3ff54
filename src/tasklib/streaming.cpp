#include "tasklib/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "tasklib/fft.hpp"

namespace vdce::tasklib {

std::vector<double> windowed_sinc_fir(std::size_t taps, double cutoff) {
  if (taps == 0) throw common::StateError("FIR needs at least one tap");
  if (!(cutoff > 0.0) || cutoff > 0.5) {
    throw common::StateError("FIR cutoff must lie in (0, 0.5]");
  }
  std::vector<double> h(taps);
  const double mid = (static_cast<double>(taps) - 1.0) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double x = 2.0 * std::numbers::pi * cutoff * t;
    const double sinc = t == 0.0 ? 2.0 * cutoff
                                 : std::sin(x) / (std::numbers::pi * t);
    const double hamming =
        0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                               static_cast<double>(i) /
                               (static_cast<double>(taps) - 1.0 + 1e-12));
    h[i] = sinc * hamming;
    sum += h[i];
  }
  for (double& v : h) v /= sum;  // unit DC gain
  return h;
}

std::vector<double> rational_resample(const std::vector<double>& signal,
                                      unsigned up, unsigned down,
                                      std::size_t taps) {
  if (up == 0 || down == 0) {
    throw common::StateError("resample factors must be positive");
  }
  const std::size_t n = signal.size();
  const std::size_t out_len =
      (n * up + down - 1) / down;  // ceil(n * up / down)
  if (n == 0) return {};
  const double cutoff = 0.5 / static_cast<double>(std::max(up, down));
  std::vector<double> h = windowed_sinc_fir(taps, cutoff);
  // The zero-stuffed signal carries 1/up of the original power per
  // sample; the interpolation filter restores it.
  for (double& v : h) v *= static_cast<double>(up);

  std::vector<double> out(out_len, 0.0);
  // out[m] = sum_k h[k] * stuffed[m*down - k], where stuffed[j] is
  // signal[j/up] when up divides j and 0 otherwise.  Polyphase: only
  // the taps k = pos (mod up) meet a real sample, so an output visits
  // just those, in ascending order, and the stuffed signal is never
  // materialized.  m < out_len keeps pos below n * up, so every sample
  // index (pos - k) / up lies below n.
  const auto one_output = [&](std::size_t m) {
    const std::size_t pos = m * down;
    double acc = 0.0;
    std::size_t src = pos / up;  // (pos - k) / up, one less per tap
    for (std::size_t k = pos % up; k < h.size() && k <= pos;
         k += up, --src) {
      acc += h[k] * signal[src];
    }
    out[m] = acc;
  };
  // Outputs m, m + up, m + 2 up and m + 3 up lie up * down apart in the
  // stuffed signal, so they share a phase: the same taps meet samples
  // `down` apart.  Once pos reaches the phase's last tap, all four sum
  // in lockstep, each over its own taps in ascending order, so each
  // keeps its bits; the outputs before that and the last few of the
  // phase take the one-output loop.
  for (std::size_t r = 0; r < up && r < out_len; ++r) {
    const std::size_t k0 = r * down % up;
    if (k0 >= h.size()) continue;  // no tap in this phase: outputs are 0
    const std::size_t k_last = k0 + (h.size() - 1 - k0) / up * up;
    std::size_t m = r;
    for (; m < out_len && m * down < k_last; m += up) one_output(m);
    for (; m + 3 * up < out_len; m += 4 * up) {
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      std::size_t src = m * down / up;
      for (std::size_t k = k0; k < h.size(); k += up, --src) {
        acc0 += h[k] * signal[src];
        acc1 += h[k] * signal[src + down];
        acc2 += h[k] * signal[src + 2 * down];
        acc3 += h[k] * signal[src + 3 * down];
      }
      out[m] = acc0;
      out[m + up] = acc1;
      out[m + 2 * up] = acc2;
      out[m + 3 * up] = acc3;
    }
    for (; m < out_len; m += up) one_output(m);
  }
  return out;
}

namespace {

// One window of samples per invocation (unit size = 64 samples).
std::size_t window_len(double input_size) {
  return std::max<std::size_t>(
      16, static_cast<std::size_t>(std::lround(64.0 * input_size)));
}

repo::TaskPerformanceRecord stream_perf(const std::string& name,
                                        double base_time, double comp,
                                        double comm_mb, double mem_mb) {
  repo::TaskPerformanceRecord r;
  r.task_name = name;
  r.base_time_s = base_time;
  r.computation_size = comp;
  r.communication_size_mb = comm_mb;
  r.memory_req_mb = mem_mb;
  return r;
}

LibraryEntry stream_entry(std::string name, std::string desc, unsigned min_in,
                          unsigned max_in, TaskFn fn, double base_time,
                          double comp, double comm_mb, double mem_mb) {
  LibraryEntry e;
  e.name = name;
  e.menu = "streaming";
  e.description = std::move(desc);
  e.min_inputs = min_in;
  e.max_inputs = max_in;
  e.fn = std::move(fn);
  e.default_perf = stream_perf(name, base_time, comp, comm_mb, mem_mb);
  return e;
}

}  // namespace

void register_streaming_menu(TaskRegistry& r) {
  r.add(stream_entry(
      "stream_window_source", "one sensor window: two tones + seeded noise",
      0, 0,
      [](const std::vector<Payload>&, const TaskContext& ctx) {
        const std::size_t n = window_len(ctx.input_size);
        std::vector<double> w(n);
        for (std::size_t i = 0; i < n; ++i) {
          const double t =
              static_cast<double>(i) / static_cast<double>(n);
          w[i] = std::sin(2.0 * std::numbers::pi * 5.0 * t) +
                 0.5 * std::sin(2.0 * std::numbers::pi * 12.0 * t) +
                 0.1 * ctx.rng->normal();
        }
        return Payload::of_vector(w);
      },
      0.01, 0.1, 0.0005, 0.01));

  r.add(stream_entry(
      "stream_resample", "rational 3/2 rate conversion (windowed-sinc FIR)",
      1, 1,
      [](const std::vector<Payload>& in, const TaskContext&) {
        return Payload::of_vector(
            rational_resample(in[0].as_vector(), 3, 2));
      },
      0.05, 0.5, 0.0008, 0.01));

  r.add(stream_entry(
      "stream_window_fft", "power spectrum of one window",
      1, 1,
      [](const std::vector<Payload>& in, const TaskContext&) {
        return Payload::of_vector(power_spectrum(in[0].as_vector()));
      },
      0.05, 0.5, 0.0008, 0.01));

  r.add(stream_entry(
      "stream_sink", "window digest: {samples, energy, peak}",
      1, 8,
      [](const std::vector<Payload>& in, const TaskContext&) {
        double samples = 0.0, energy = 0.0, peak = 0.0;
        for (const Payload& p : in) {
          for (const double v : p.as_vector()) {
            samples += 1.0;
            energy += v * v;
            peak = std::max(peak, std::abs(v));
          }
        }
        return Payload::of_vector({samples, energy, peak});
      },
      0.01, 0.05, 0.00005, 0.01));
}

}  // namespace vdce::tasklib
