#include "common/metrics.hpp"

#include <sstream>

namespace vdce::common {

void Histogram::observe(double v) {
  std::lock_guard lk(mu_);
  stats_.add(v);
  if (reservoir_.size() < kReservoirCapacity) {
    reservoir_.push_back(v);
  } else {
    reservoir_[next_slot_] = v;
    next_slot_ = (next_slot_ + 1) % kReservoirCapacity;
  }
}

HistogramSnapshot Histogram::snapshot() const {
  std::vector<double> samples;
  HistogramSnapshot snap;
  {
    std::lock_guard lk(mu_);
    snap.count = stats_.count();
    snap.mean = stats_.mean();
    snap.stddev = stats_.stddev();
    snap.min = stats_.min();
    snap.max = stats_.max();
    samples = reservoir_;
  }
  if (!samples.empty()) {
    snap.p50 = percentile(samples, 50);
    snap.p95 = percentile(std::move(samples), 95);
  }
  return snap;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lk(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_[std::string(name)];
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lk(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_[std::string(name)];
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lk(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_[std::string(name)];
}

std::string MetricsRegistry::text_summary() const {
  std::ostringstream out;
  out << "metric,kind,value\n";
  std::lock_guard lk(mu_);
  for (const auto& [name, c] : counters_) {
    out << name << ",counter," << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out << name << ",gauge," << g.value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const auto s = h.snapshot();
    out << name << ",histogram,count=" << s.count << " mean=" << s.mean
        << " p50=" << s.p50 << " p95=" << s.p95 << " max=" << s.max << '\n';
  }
  return out.str();
}

void Histogram::reset() {
  std::lock_guard lk(mu_);
  stats_ = RunningStats{};
  reservoir_.clear();
  next_slot_ = 0;
}

void MetricsRegistry::reset() {
  std::lock_guard lk(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: threads that are never joined (the communication
  // proxy's readers, parked pool threads) may still bump an instrument
  // while static destructors run.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

}  // namespace vdce::common
