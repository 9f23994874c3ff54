// The Group Manager.
//
// "The Group Manager ... periodically receives the up-to-date values
//  from hosts.  Group Manager sends only the workloads of the resources
//  that have changed considerably from the previous measurement to the
//  Site Manager.  The workload of a resource is significantly changed if
//  the up-to-date measurement is higher or lower than the summation of
//  the previous measurement and the width of the confidence interval.
//  ...  The Group Manager periodically checks to see if all hosts in the
//  group are alive by sending echo packets to hosts and waiting for
//  their responses.  These packets are used to detect the node and
//  network failures and to measure the network parameters, i.e., network
//  latency and transfer rate within a group."  (Section 2.3.1)
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "netsim/testbed.hpp"
#include "runtime/messages.hpp"
#include "runtime/monitor.hpp"

namespace vdce::rt {

/// What one Group Manager tick wants the Site Manager to know.
struct GroupTickOutput {
  std::vector<WorkloadUpdate> workload_updates;
  std::vector<LivenessChange> liveness_changes;
  std::vector<NetworkMeasurement> network_measurements;
};

/// Message-traffic counters for the monitoring experiments (F6).
struct GroupManagerStats {
  std::size_t reports_received = 0;   // monitor -> group manager
  std::size_t updates_forwarded = 0;  // group manager -> site manager
  std::size_t echo_rounds = 0;
  std::size_t failures_detected = 0;
  std::size_t recoveries_detected = 0;
};

/// Every Monitor's measurement period: one control tick.
inline constexpr Duration kMonitorPeriodS = 1.0;

/// Tunables for one Group Manager.
struct GroupManagerConfig {
  /// Echo (keep-alive) round period.
  Duration echo_period_s = 2.0;
  /// Confidence-interval z multiplier for the forwarding filter.
  double ci_z = 1.96;
  /// When false, every report is forwarded (ablation D1).
  bool ci_filter = true;
};

/// The per-group leader process.
class GroupManager {
 public:
  /// Owns a Monitor per host of `group`, each measuring every
  /// kMonitorPeriodS.  `testbed` must outlive the manager.
  GroupManager(netsim::VirtualTestbed& testbed, GroupId group,
               GroupManagerConfig config = {});

  /// One control-plane step at time `now`: collect due monitor reports,
  /// run the CI forwarding filter, run the echo round when due.
  [[nodiscard]] GroupTickOutput tick(TimePoint now);

  [[nodiscard]] GroupId group() const { return group_; }
  [[nodiscard]] const GroupManagerStats& stats() const { return stats_; }
  [[nodiscard]] const GroupManagerConfig& config() const { return config_; }

  /// Hosts this group manager currently believes are alive.
  [[nodiscard]] std::vector<HostId> hosts_believed_alive() const;

  /// Whether `host` belongs to this manager's group.
  [[nodiscard]] bool manages(HostId host) const {
    return tracking_.contains(host);
  }

  /// Out-of-band failure report from the Application Controller path
  /// (an executing task found its host dead before the next echo round
  /// would).  Flips the believed-alive state and returns the resulting
  /// LivenessChange, or std::nullopt when the host is unknown or
  /// already believed down.
  [[nodiscard]] std::optional<LivenessChange> report_task_failure(
      HostId host, TimePoint when);

 private:
  struct HostTracking {
    common::SlidingWindowStats window;
    double last_forwarded_load = -1.0;  // <0: nothing forwarded yet
    bool believed_alive = true;
  };

  netsim::VirtualTestbed* testbed_;
  GroupId group_;
  GroupManagerConfig config_;
  std::vector<Monitor> monitors_;
  std::unordered_map<HostId, HostTracking> tracking_;
  TimePoint next_echo_ = 0.0;
  GroupManagerStats stats_;
};

}  // namespace vdce::rt
