#include "runtime/control_manager.hpp"

#include <string>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "runtime/wire.hpp"

namespace vdce::rt {

void dispatch_control_frame(std::span<const std::byte> frame,
                            ControlSink& sink) {
  switch (wire::peek_type(frame)) {
    case wire::MsgType::kMonitorReport: {
      // Monitor reports reaching a sink are treated as workload
      // updates (a site with no CI filter forwards raw reports).
      const MonitorReport report = wire::decode_monitor_report(frame);
      sink.on_workload(WorkloadUpdate{report.host, report.when,
                                      report.cpu_load,
                                      report.available_memory_mb});
      return;
    }
    case wire::MsgType::kWorkloadUpdate:
      sink.on_workload(wire::decode_workload_update(frame));
      return;
    case wire::MsgType::kLivenessChange:
      sink.on_liveness(wire::decode_liveness_change(frame));
      return;
    case wire::MsgType::kNetworkMeasurement:
      sink.on_network(wire::decode_network_measurement(frame));
      return;
    case wire::MsgType::kRescheduleRequest:
      sink.on_reschedule(wire::decode_reschedule_request(frame));
      return;
    default:
      throw common::ParseError(
          std::string("unexpected message on a control channel: ") +
          wire::to_string(wire::peek_type(frame)));
  }
}

ControlManager::ControlManager(netsim::VirtualTestbed& testbed, SiteId site,
                               SiteManager& site_manager,
                               GroupManagerConfig group_config)
    : site_manager_(&site_manager) {
  for (const GroupId group : testbed.groups_in_site(site)) {
    group_managers_.emplace_back(testbed, group, group_config);
  }
}

template <typename Message>
void ControlManager::deliver(const Message& message) {
  const std::vector<std::byte> frame = wire::encode(message);
  dispatch_control_frame(frame, *this);
  // Only delivered messages count.
  ++control_messages_;
  control_bytes_ += frame.size();
}

void ControlManager::tick(TimePoint now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (GroupManager& gm : group_managers_) {
    GroupTickOutput out = gm.tick(now);
    for (const WorkloadUpdate& u : out.workload_updates) deliver(u);
    for (const LivenessChange& c : out.liveness_changes) deliver(c);
    for (const NetworkMeasurement& m : out.network_measurements) deliver(m);
  }
}

void ControlManager::run_until(TimePoint from, TimePoint to,
                               Duration step_s) {
  common::expects(step_s > 0.0, "tick step must be positive");
  for (TimePoint t = from + step_s; t <= to + 1e-9; t += step_s) {
    tick(t);
  }
}

void ControlManager::report_task_failure(const RescheduleRequest& request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  deliver(request);
}

void ControlManager::on_workload(const WorkloadUpdate& update) {
  site_manager_->handle_workload(update);
}

void ControlManager::on_liveness(const LivenessChange& change) {
  site_manager_->handle_liveness(change);
}

void ControlManager::on_network(const NetworkMeasurement& measurement) {
  site_manager_->handle_network(measurement);
}

void ControlManager::on_reschedule(const RescheduleRequest& request) {
  ++reschedule_requests_;
  common::MetricsRegistry::global()
      .counter("control.reschedule_requests")
      .add(1);
  if (request.kind != RescheduleRequest::Kind::kHostFailure) return;
  for (GroupManager& gm : group_managers_) {
    if (!gm.manages(request.host)) continue;
    if (const auto change =
            gm.report_task_failure(request.host, request.when)) {
      site_manager_->handle_liveness(*change);
    }
    return;
  }
}

ControlManagerStats ControlManager::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ControlManagerStats total;
  for (const GroupManager& gm : group_managers_) {
    total.reports_received += gm.stats().reports_received;
    total.updates_forwarded += gm.stats().updates_forwarded;
    total.failures_detected += gm.stats().failures_detected;
    total.recoveries_detected += gm.stats().recoveries_detected;
  }
  total.reschedule_requests = reschedule_requests_;
  total.control_messages_sent = control_messages_;
  total.control_bytes_sent = control_bytes_;
  return total;
}

}  // namespace vdce::rt
