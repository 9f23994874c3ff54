// The Control Manager of one site: the Resource Controller wiring of
// Figure 6 (Monitor daemons -> Group Managers -> Site Manager).
//
// "The Control Manager measures the loads on the resources (hosts and
//  networks) periodically, and monitors the resources for possible
//  failures."  (Section 2.3)
//
// tick(now) advances every Group Manager (which advances its Monitors)
// and routes their outputs into the Site Manager; driving tick from a
// VirtualClock gives a deterministic control plane.
//
// Since D14 every routed message makes a wire round trip: the Control
// Manager encodes it, decodes it again with dispatch_control_frame and
// dispatches it into its own handlers, synchronously, so the in-process
// deployments exercise the exact byte format the site daemons speak.
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/group_manager.hpp"
#include "runtime/messages.hpp"
#include "runtime/site_manager.hpp"

namespace vdce::rt {

/// Receiver of decoded control messages (the Site Manager side).
class ControlSink {
 public:
  virtual ~ControlSink() = default;
  virtual void on_workload(const WorkloadUpdate& update) = 0;
  virtual void on_liveness(const LivenessChange& change) = 0;
  virtual void on_network(const NetworkMeasurement& measurement) = 0;
  virtual void on_reschedule(const RescheduleRequest& request) = 0;
};

/// Decodes one wire frame and routes it into `sink`.  Throws ParseError
/// for garbage/truncated frames and for non-control message types (RPCs
/// do not belong on a control channel).
void dispatch_control_frame(std::span<const std::byte> frame,
                            ControlSink& sink);

/// Aggregated monitoring statistics of one site.
struct ControlManagerStats {
  std::size_t reports_received = 0;
  std::size_t updates_forwarded = 0;
  std::size_t failures_detected = 0;
  std::size_t recoveries_detected = 0;
  /// Reschedule requests routed through report_task_failure.
  std::size_t reschedule_requests = 0;
  /// Control messages dispatched, and their total encoded size (the
  /// D14 coordination-traffic record).
  std::size_t control_messages_sent = 0;
  std::size_t control_bytes_sent = 0;
};

/// Per-site Resource Controller.
class ControlManager : private ControlSink {
 public:
  /// Builds one Group Manager per group of `site`.  `testbed` and
  /// `site_manager` must outlive the Control Manager.
  ControlManager(netsim::VirtualTestbed& testbed, SiteId site,
                 SiteManager& site_manager,
                 GroupManagerConfig group_config = {});

  /// One control-plane step: tick every Group Manager, deliver its
  /// outputs to the Site Manager.
  void tick(TimePoint now);

  /// Failure event from the execution path: an Application Controller
  /// (or the engine's retry loop) found a task's host unusable.  A
  /// kHostFailure request is routed to the owning Group Manager, whose
  /// resulting liveness change (if the host was still believed alive)
  /// is forwarded to the Site Manager so the repository marks the host
  /// down before the next placement.  Thread-safe against tick(): the
  /// engine's machine threads report concurrently with the clock
  /// driver.
  void report_task_failure(const RescheduleRequest& request);

  [[nodiscard]] ControlManagerStats stats() const;

 private:
  /// Encodes `message`, decodes and dispatches it into the handlers
  /// below, and counts it.  Called under mutex_.
  template <typename Message>
  void deliver(const Message& message);

  // ControlSink: called synchronously from deliver() under mutex_, so
  // these must not re-lock.
  void on_workload(const WorkloadUpdate& update) override;
  void on_liveness(const LivenessChange& change) override;
  void on_network(const NetworkMeasurement& measurement) override;
  void on_reschedule(const RescheduleRequest& request) override;

  SiteManager* site_manager_;
  std::vector<GroupManager> group_managers_;
  /// Serialises tick() and report_task_failure() over the Group
  /// Managers' tracking state and the Site Manager handlers.
  mutable std::mutex mutex_;
  std::size_t reschedule_requests_ = 0;
  std::size_t control_messages_ = 0;
  std::size_t control_bytes_ = 0;
};

}  // namespace vdce::rt
