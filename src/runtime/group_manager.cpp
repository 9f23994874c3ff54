#include "runtime/group_manager.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace vdce::rt {

namespace {
/// Measurements per host in the CI computation's sliding window.
constexpr std::size_t kCiWindow = 8;
}  // namespace

GroupManager::GroupManager(netsim::VirtualTestbed& testbed, GroupId group,
                           GroupManagerConfig config)
    : testbed_(&testbed), group_(group), config_(config) {
  common::expects(config.echo_period_s > 0.0,
                  "echo period must be positive");
  for (const HostId host : testbed.hosts_in_group(group)) {
    monitors_.emplace_back(testbed, host, kMonitorPeriodS);
    tracking_.emplace(
        host, HostTracking{common::SlidingWindowStats(kCiWindow), -1.0,
                           true});
  }
}

GroupTickOutput GroupManager::tick(TimePoint now) {
  GroupTickOutput out;
  std::uint64_t received_this_tick = 0;

  // 1. Collect due monitor reports and run the forwarding filter.
  for (Monitor& monitor : monitors_) {
    const auto report = monitor.tick(now);
    if (!report) continue;
    ++stats_.reports_received;
    ++received_this_tick;

    HostTracking& tr = tracking_.at(report->host);
    // CI width from the *previous* window, before this measurement.
    const double halfwidth = tr.window.confidence_halfwidth(config_.ci_z);
    tr.window.add(report->cpu_load);

    bool forward = true;
    if (config_.ci_filter && tr.last_forwarded_load >= 0.0) {
      forward = std::abs(report->cpu_load - tr.last_forwarded_load) >
                halfwidth;
    }
    if (forward) {
      tr.last_forwarded_load = report->cpu_load;
      out.workload_updates.push_back(WorkloadUpdate{
          report->host, report->when, report->cpu_load,
          report->available_memory_mb});
      ++stats_.updates_forwarded;
    }
  }
  if (received_this_tick > 0) {
    auto& metrics = common::MetricsRegistry::global();
    metrics.counter("monitor.reports_received").add(received_this_tick);
    metrics.counter("monitor.updates_forwarded")
        .add(out.workload_updates.size());
    metrics.counter("monitor.updates_suppressed")
        .add(received_this_tick - out.workload_updates.size());
  }

  // 2. Echo (keep-alive) round.
  if (now >= next_echo_) {
    while (next_echo_ <= now) next_echo_ += config_.echo_period_s;
    ++stats_.echo_rounds;

    for (auto& [host, tr] : tracking_) {
      const bool alive = testbed_->is_alive(host, now);
      if (alive != tr.believed_alive) {
        tr.believed_alive = alive;
        out.liveness_changes.push_back(LivenessChange{host, now, alive});
        if (alive) {
          ++stats_.recoveries_detected;
        } else {
          ++stats_.failures_detected;
        }
        if (common::trace_enabled()) {
          common::trace_instant(
              "liveness_change", "monitor",
              {{"host", std::to_string(host.value())},
               {"alive", alive ? "true" : "false"}});
        }
        common::MetricsRegistry::global()
            .counter(alive ? "monitor.recoveries_detected"
                           : "monitor.failures_detected")
            .add(1);
      }
    }

    // Echo round-trips double as intra-group network measurement.
    const auto lan = testbed_->lan_attrs(group_);
    out.network_measurements.push_back(NetworkMeasurement{
        group_, now, lan.latency_s, lan.transfer_mb_per_s});
  }

  return out;
}

std::optional<LivenessChange> GroupManager::report_task_failure(
    HostId host, TimePoint when) {
  const auto it = tracking_.find(host);
  if (it == tracking_.end()) return std::nullopt;
  if (!it->second.believed_alive) return std::nullopt;  // already known down
  it->second.believed_alive = false;
  ++stats_.failures_detected;
  if (common::trace_enabled()) {
    common::trace_instant("task_failure_report", "monitor",
                          {{"host", std::to_string(host.value())}});
  }
  common::MetricsRegistry::global()
      .counter("monitor.failures_detected")
      .add(1);
  return LivenessChange{host, when, false};
}

std::vector<HostId> GroupManager::hosts_believed_alive() const {
  std::vector<HostId> out;
  for (const auto& [host, tr] : tracking_) {
    if (tr.believed_alive) out.push_back(host);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vdce::rt
