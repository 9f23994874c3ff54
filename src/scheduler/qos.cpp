#include "scheduler/qos.hpp"

#include <algorithm>
#include <unordered_map>

namespace vdce::sched {

Duration predicted_makespan(const afg::FlowGraph& graph,
                            const AllocationTable& allocation,
                            const SiteDirectory& directory,
                            const HostOccupancy& busy) {
  graph.validate();

  // Hosts this graph has already used; any other host is free from
  // its committed time in `busy` (residual capacity), read in place.
  std::unordered_map<HostId, Duration> host_free;
  std::unordered_map<TaskId, Duration> finish;
  Duration makespan = 0.0;

  // Topological sweep: every parent is finished before its children
  // are visited, so one pass suffices.
  for (const TaskId id : graph.topological_order()) {
    const AllocationEntry& entry = allocation.entry(id);

    Duration data_ready = 0.0;
    for (const TaskId p : graph.parents(id)) {
      const Duration transfer = directory.host_transfer_time(
          allocation.entry(p).primary_host(), entry.primary_host(),
          graph.link(p, id).transfer_mb);
      data_ready = std::max(data_ready, finish.at(p) + transfer);
    }

    Duration start = data_ready;
    for (const HostId h : entry.hosts) {
      if (const auto it = host_free.find(h); it != host_free.end()) {
        start = std::max(start, it->second);
      } else if (const auto b = busy.find(h); b != busy.end()) {
        start = std::max(start, b->second);
      }
    }
    const Duration end = start + entry.predicted_s;
    finish[id] = end;
    for (const HostId h : entry.hosts) host_free[h] = end;
    makespan = std::max(makespan, end);
  }
  return makespan;
}

Duration predicted_makespan(const afg::FlowGraph& graph,
                            const AllocationTable& allocation,
                            const SiteDirectory& directory) {
  return predicted_makespan(graph, allocation, directory, HostOccupancy{});
}

QosAdmission check_qos(const afg::FlowGraph& graph,
                       const AllocationTable& allocation,
                       const SiteDirectory& directory,
                       const QosRequirement& qos,
                       const HostOccupancy& busy) {
  QosAdmission admission;
  admission.predicted_makespan_s =
      predicted_makespan(graph, allocation, directory, busy);
  admission.slack_s = qos.deadline_s - admission.predicted_makespan_s;
  admission.admitted = admission.slack_s >= 0.0;
  return admission;
}

QosAdmission check_qos(const afg::FlowGraph& graph,
                       const AllocationTable& allocation,
                       const SiteDirectory& directory,
                       const QosRequirement& qos) {
  return check_qos(graph, allocation, directory, qos, HostOccupancy{});
}

}  // namespace vdce::sched
