#include "predict/forecaster.hpp"

namespace vdce::predict {

LoadForecaster::LoadForecaster(std::size_t window, ForecastMethod method,
                               double ewma_alpha)
    : window_(window), method_(method), ewma_alpha_(ewma_alpha) {}

void LoadForecaster::observe(HostId host, double load) {
  std::lock_guard lk(mu_);
  version_.fetch_add(1, std::memory_order_release);
  auto it = windows_.find(host);
  if (it == windows_.end()) {
    it = windows_.emplace(host, common::SlidingWindowStats(window_)).first;
  }
  it->second.add(load);
}

std::optional<double> LoadForecaster::forecast(HostId host) const {
  std::lock_guard lk(mu_);
  const auto it = windows_.find(host);
  if (it == windows_.end() || it->second.empty()) return std::nullopt;
  return common::forecast(it->second, method_, ewma_alpha_);
}

std::size_t LoadForecaster::count(HostId host) const {
  std::lock_guard lk(mu_);
  const auto it = windows_.find(host);
  return it == windows_.end() ? 0 : it->second.count();
}

void LoadForecaster::forget(HostId host) {
  std::lock_guard lk(mu_);
  version_.fetch_add(1, std::memory_order_release);
  windows_.erase(host);
}

}  // namespace vdce::predict
