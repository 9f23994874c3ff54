// Chaos fault-injection harness: seeded, composable fault schedules.
//
// The paper's fault model is implicit -- "the VDCE monitors the
// resources for possible failures" -- so the repo needs a way to
// manufacture failures that are (a) reproducible from a seed, (b)
// composable (a site outage overlapping a gray host overlapping a
// partition), and (c) driven entirely through the existing testbed
// fault windows and FaultTolerance hooks, so the engine's recovery
// rounds, the submission service's wrapped hooks and the liveness
// directory's host flap policy see exactly what they would see in
// production.  A
// ChaosSchedule is a list of timed events:
//
//   * kHostCrash       one host stops answering for a window;
//   * kSiteOutage      every host of a site goes dark at once (the
//                      service's re-placements must leave the site);
//   * kPartition       two sites stay up but cannot see each other --
//                      a partition-aware liveness probe reports the
//                      far side dead while local probes stay green;
//   * kGrayHost        slow-host degradation: the host answers pings
//                      but carries a heavy injected load (caught by
//                      the load guard, not the fault guard);
//   * kDeadlineStorm   a burst of short crash pulses on one host --
//                      receive deadlines fire repeatedly, which is
//                      what raises a host's flap score to quarantine;
//   * kDaemonKill      SIGKILL the site daemon PROCESS of one site
//                      (D14): not a simulated window but a real
//                      process death, delivered through the killer
//                      callback of apply_processes() -- typically
//                      Watchdog::kill_daemon.
//
// apply() installs the crash windows and load spikes into a
// VirtualTestbed; partitions are kept inside the schedule and served
// through reachable()/liveness_probe(observer_site).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netsim/testbed.hpp"

namespace vdce::netsim {

enum class ChaosEventKind {
  kHostCrash,
  kSiteOutage,
  kPartition,
  kGrayHost,
  kDeadlineStorm,
  kDaemonKill,
};

[[nodiscard]] const char* to_string(ChaosEventKind kind);

/// One injected fault, active during [start, start + length).
struct ChaosEvent {
  ChaosEventKind kind = ChaosEventKind::kHostCrash;
  TimePoint start = 0.0;
  Duration length = 0.0;
  /// Target host (kHostCrash, kGrayHost, kDeadlineStorm).
  HostId host;
  /// Target site (kSiteOutage), or one side of a kPartition.
  SiteId site;
  /// The other side of a kPartition.
  SiteId other_site;
  /// Injected extra load (kGrayHost).
  double extra_load = 0.0;
  /// Number of short crash pulses spread over the window
  /// (kDeadlineStorm); each pulse is length/(2*pulses) long.
  int pulses = 0;
};

/// Knobs for ChaosSchedule::generate().  `intensity` in [0, 1] scales
/// every per-kind event count linearly; 0 yields an empty schedule.
struct ChaosScheduleConfig {
  std::uint64_t seed = 42;
  double intensity = 0.5;
  /// Events start inside [0, horizon_s) and last 5-20 s.
  TimePoint horizon_s = 60.0;
  /// Per-kind maximum event counts at intensity 1 (one partition and
  /// two deadline storms are fixed).
  int max_crashes = 4;
  int max_site_outages = 1;
  int max_gray_hosts = 3;
  /// Sites never targeted by crashes/outages/gray hosts (keep at least
  /// one site alive so failover has somewhere to land).
  std::vector<SiteId> protected_sites;
};

/// A deterministic, composable fault schedule.
class ChaosSchedule {
 public:
  ChaosSchedule() = default;

  /// Draws a schedule from the testbed topology and the config; the
  /// same (testbed config, chaos config) pair always yields the same
  /// events.
  [[nodiscard]] static ChaosSchedule generate(const VirtualTestbed& bed,
                                              const ChaosScheduleConfig& cfg);

  /// Appends one hand-built event (tests compose exact scenarios).
  void add(ChaosEvent event) { events_.push_back(event); }

  [[nodiscard]] const std::vector<ChaosEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t count(ChaosEventKind kind) const;

  /// Installs every crash-window-shaped event (crashes, site outages,
  /// deadline-storm pulses) and gray-host load spike into the testbed.
  /// Partitions are NOT installed -- they live in the schedule and are
  /// served through reachable().  Idempotent only in the sense that
  /// applying twice doubles nothing logically (windows merely overlap);
  /// call it once per testbed.
  void apply(VirtualTestbed& bed) const;

  /// Fires every kDaemonKill event through `kill` (ordered by start
  /// time).  The callback owns the mechanics -- in the daemon
  /// deployments it is Watchdog::kill_daemon(site, SIGKILL), so the
  /// schedule stays process-agnostic and composable with the simulated
  /// fault kinds, which apply() installs separately.
  void apply_processes(const std::function<void(SiteId)>& kill) const;

  /// Whether `host` is reachable from an observer in `observer` site at
  /// time `t`: the host must be truly alive (testbed windows) and no
  /// active partition may separate the two sites.
  [[nodiscard]] bool reachable(const VirtualTestbed& bed, SiteId observer,
                               HostId host, TimePoint t) const;

  /// Partition-aware FaultTolerance::host_alive probe evaluated at the
  /// testbed's live time from the given observer site.
  [[nodiscard]] std::function<bool(HostId)> liveness_probe(
      const VirtualTestbed& bed, SiteId observer) const;

  /// True when a partition separates sites `a` and `b` at time `t`.
  [[nodiscard]] bool partitioned(SiteId a, SiteId b, TimePoint t) const;

  /// Serializes the kPartition events as "a,b,start,end;..." with
  /// windows shifted by `base_s` -- pass the CLOCK_MONOTONIC seconds of
  /// the schedule's epoch and every process on the machine can evaluate
  /// partitioned() against its own steady clock (D17: daemons drop
  /// heartbeats and gossip along partitioned edges).  Empty when the
  /// schedule holds no partitions.
  [[nodiscard]] std::string partition_spec(double base_s) const;

  /// Parses a partition_spec back into a partition-only schedule (times
  /// stay absolute).  Throws ParseError on malformed input.
  [[nodiscard]] static ChaosSchedule from_partition_spec(
      const std::string& spec);

  /// One line per event, for logs and the bench summary.
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<ChaosEvent> events_;
};

}  // namespace vdce::netsim
