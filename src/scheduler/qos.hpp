// Application-level Quality of Service.
//
// "We provide an application-based scheduling framework that provides
//  and guarantees Quality-of-Service (QoS) of a given application."
//  (Section 2.2) and "The main goal of the VDCE project is to ...
//  [manage] the Quality of Service (QoS) requirements."  (Section 1)
//
// The QoS admission check estimates an allocation's makespan from the
// same information the scheduler used (per-task predictions + host
// serialisation + host-level transfer estimates) and admits the
// application only when the estimate meets the user's deadline.  The
// runtime's load guard and rescheduling then defend the admitted
// deadline against load changes (Section 2.3.1).
#pragma once

#include <optional>
#include <unordered_map>

#include "afg/graph.hpp"
#include "scheduler/directory.hpp"

namespace vdce::sched {

/// Predicted per-host busy time already committed to other admitted
/// applications (sum of AllocationTable::host_occupancy over them).
/// The residual-capacity admission check starts each host's
/// availability at its committed time instead of zero, so a shared
/// environment never promises the same host-seconds twice.
using HostOccupancy = std::unordered_map<HostId, Duration>;

/// A user's QoS requirement for one application run.
struct QosRequirement {
  /// Wall-clock deadline for the whole application, seconds.
  Duration deadline_s = 0.0;
};

/// The admission decision.
struct QosAdmission {
  bool admitted = false;
  /// The estimate the decision was based on.
  Duration predicted_makespan_s = 0.0;
  /// Slack (deadline - estimate); negative when rejected.
  Duration slack_s = 0.0;
};

/// Estimates the makespan of `allocation` for `graph`: an
/// estimated-completion-time sweep over the allocation with per-host
/// serialisation and host-level transfer estimates from `directory`.
/// This is the scheduler's view (predictions, not ground truth).
[[nodiscard]] Duration predicted_makespan(const afg::FlowGraph& graph,
                                          const AllocationTable& allocation,
                                          const SiteDirectory& directory);

/// Residual-capacity variant: every host starts busy until its
/// committed time in `busy` (predicted occupancy of already-admitted
/// applications), looked up the first time the graph uses the host.
/// With an empty map this is exactly the plain estimator; adding
/// occupancy can only delay tasks, never speed them up (the makespan
/// is monotone in `busy`).
[[nodiscard]] Duration predicted_makespan(const afg::FlowGraph& graph,
                                          const AllocationTable& allocation,
                                          const SiteDirectory& directory,
                                          const HostOccupancy& busy);

/// Admission check: estimate the makespan and compare to the deadline.
[[nodiscard]] QosAdmission check_qos(const afg::FlowGraph& graph,
                                     const AllocationTable& allocation,
                                     const SiteDirectory& directory,
                                     const QosRequirement& qos);

/// Residual-capacity admission: the estimate accounts for the predicted
/// host occupancy of already-admitted applications, so a deadline that
/// holds on an idle system can be (correctly) refused on a busy one.
[[nodiscard]] QosAdmission check_qos(const afg::FlowGraph& graph,
                                     const AllocationTable& allocation,
                                     const SiteDirectory& directory,
                                     const QosRequirement& qos,
                                     const HostOccupancy& busy);

}  // namespace vdce::sched
