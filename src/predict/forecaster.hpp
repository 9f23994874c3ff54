// Workload forecasting.
//
// "The current workload parameters are computed using forecasting
//  techniques based on a window of most recent workload measurements."
//  (Section 2.2.1)
//
// The LoadForecaster keeps one sliding window per host, fed by the
// monitoring pipeline, and produces the load figure Predict() consumes.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/stats.hpp"

namespace vdce::predict {

using common::ForecastMethod;
using common::HostId;

/// Per-host sliding-window load forecaster.  Thread-safe: monitors push
/// while the scheduler reads.
class LoadForecaster {
 public:
  /// `window` is the number of retained measurements per host.
  explicit LoadForecaster(std::size_t window = 8,
                          ForecastMethod method = ForecastMethod::kWindowMean,
                          double ewma_alpha = 0.5);

  /// Records a new load measurement for a host.
  void observe(HostId host, double load);

  /// Forecast for a host; nullopt when no measurement has been seen.
  [[nodiscard]] std::optional<double> forecast(HostId host) const;

  /// Number of measurements currently windowed for a host.
  [[nodiscard]] std::size_t count(HostId host) const;

  /// Drops a host's window (host decommissioned).
  void forget(HostId host);

  [[nodiscard]] ForecastMethod method() const { return method_; }

  /// Monotonic counter bumped by every observe()/forget().  Feeds the
  /// PredictionCache epoch so predictions cached against an older
  /// forecast are never served.
  [[nodiscard]] std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  std::size_t window_;
  ForecastMethod method_;
  double ewma_alpha_;
  std::atomic<std::uint64_t> version_{0};
  mutable std::mutex mu_;
  std::unordered_map<HostId, common::SlidingWindowStats> windows_;
};

}  // namespace vdce::predict
