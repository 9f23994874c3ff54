// E8: prediction accuracy.
//
// Measures the relative error of Predict(task, R) against the
// ground-truth execution time across hosts and tasks, and sweeps the
// load-forecasting method and window (design decision D5).
#include <cmath>
#include <iomanip>
#include <iostream>

#include "bench/harness.hpp"
#include "runtime/site_stack.hpp"
#include "predict/predictor.hpp"
#include "tasklib/registry.hpp"

namespace {

using namespace vdce;

constexpr double kEvalTime = 60.0;

/// Mean |predicted - actual| / actual over every (task, host) pair.
double mean_relative_error(rt::LocalVdce& v,
                           const predict::PerformancePredictor& predictor,
                           const netsim::TestbedConfig& config) {
  double err = 0.0;
  std::size_t n = 0;
  for (const auto& task :
       {"lu_decomposition", "matrix_inversion", "fft_forward",
        "track_filter", "synth_compute", "convolve"}) {
    for (const auto host : v.testbed.all_hosts()) {
      if (!v.sites[0].repository->constraints().can_run(task, host)) continue;
      const double predicted = predictor.predict(task, 1.0, host);
      netsim::VirtualTestbed universe(config);
      const double actual = universe.execution_time_at(
          v.sites[0].repository->tasks().get(task), 1.0, host, kEvalTime);
      err += std::abs(predicted - actual) / actual;
      ++n;
    }
  }
  return err / static_cast<double>(n);
}

}  // namespace

int main() {
  bench::banner("E8a", "prediction error by information source");
  bench::header("configuration,mean_relative_error");

  netsim::RandomTestbedParams params;
  params.num_sites = 2;
  params.groups_per_site = 2;
  params.hosts_per_group = 4;
  const auto config = netsim::make_random_testbed(params, 808);

  {
    // Full model: trial-run weights + monitored load forecast.
    rt::LocalVdce v(config);
    v.warm_up(kEvalTime);
    predict::PerformancePredictor p(*v.sites[0].repository,
                                    v.sites[0].forecaster.get());
    std::cout << "weights+forecast," << std::fixed << std::setprecision(3)
              << mean_relative_error(v, p, config) << "\n";
  }
  {
    // No monitoring: repository loads stay at their t=0 defaults.
    rt::LocalVdce v(config);
    predict::PerformancePredictor p(*v.sites[0].repository);
    std::cout << "weights,stale_load," << std::fixed << std::setprecision(3)
              << mean_relative_error(v, p, config) << "\n";
  }
  {
    // No weights either: strip every trial-run weight (weight = 1).
    rt::LocalVdce v(config);
    auto blank = std::make_unique<repo::SiteRepository>(common::SiteId(0));
    tasklib::builtin_registry().install_defaults(blank->tasks());
    // Copy host records but not weights.
    for (const auto& rec : v.sites[0].repository->resources().all_hosts()) {
      blank->resources().restore(rec);
    }
    for (const auto& c : v.sites[0].repository->constraints().all()) {
      blank->constraints().set_location(c.task_name, c.host,
                                        c.executable_path);
    }
    predict::PerformancePredictor p(*blank);
    std::cout << "no_weights,stale_load," << std::fixed
              << std::setprecision(3) << mean_relative_error(v, p, config)
              << "\n";
  }
  std::cout << "shape check: error grows as information is removed — the "
               "paper's 'combination of analytical modeling and "
               "measurements' is what makes Predict() usable.\n";

  bench::banner("E8b", "forecast method x window x monitor noise (D5)");
  bench::header("monitor_noise,method,window,mean_relative_error");
  // Extra multiplicative monitor noise on top of the testbed's ~3%:
  // cheap /proc sampling (clean) vs load-average style estimates
  // (noisy).
  for (const double extra_noise : {0.0, 0.5}) {
    for (const auto& [name, method] :
         {std::pair{"last_sample", common::ForecastMethod::kLastSample},
          std::pair{"window_mean", common::ForecastMethod::kWindowMean},
          std::pair{"ewma",
                    common::ForecastMethod::kExponentialSmoothing}}) {
      for (const std::size_t window : {2u, 8u, 32u}) {
        rt::LocalVdce v(config);
        predict::LoadForecaster forecaster(window, method);
        common::Rng noise_rng(777);
        // Feed the forecaster one measurement per second up to the
        // evaluation time; its sliding window keeps the newest `window`.
        for (double t = 1.0; t <= kEvalTime; t += 1.0) {
          for (const auto host : v.testbed.all_hosts()) {
            const double measured = v.testbed.measure_load(host, t);
            const double jitter =
                std::max(0.0, 1.0 + extra_noise * noise_rng.normal());
            forecaster.observe(host, measured * jitter);
          }
        }
        predict::PerformancePredictor p(*v.sites[0].repository, &forecaster);
        std::cout << extra_noise << "," << name << "," << window << ","
                  << std::fixed << std::setprecision(3)
                  << mean_relative_error(v, p, config) << "\n";
      }
    }
  }
  std::cout << "shape check: with clean monitors the newest sample is the "
               "best forecast (windows only add lag); with noisy monitors "
               "the ordering flips and windowed averaging wins — D5 is a "
               "noise/drift trade-off.\n";
  return 0;
}
