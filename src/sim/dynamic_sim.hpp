// Dynamic execution simulation: the full VDCE runtime loop at simulated
// time.
//
// Extends the static replay with the Control Manager behaviours of
// Section 2.3.1:
//   * the monitoring fabric (Monitors -> Group Managers -> Site
//     Managers) ticks periodically, keeping the repositories and load
//     forecasts current;
//   * the Application Controller's load guard: a task whose machine is
//     above the load threshold (at start or at any control tick while
//     running) is terminated and a rescheduling request is issued;
//   * failure handling: a host that dies mid-execution kills its task;
//     the Group Manager detects the failure at its next echo round,
//     marks the host down, and the task is rescheduled on the surviving
//     machines.
//
// Rescheduling re-runs the prediction-driven host choice over every
// registered site's *current* repository view, so what the benches
// measure is exactly the value of the paper's monitoring + rescheduling
// machinery (experiment E9).
#pragma once

#include <limits>

#include "runtime/site_stack.hpp"
#include "scheduler/allocation.hpp"
#include "sim/static_sim.hpp"

namespace vdce::sim {

/// Dynamic simulation tunables.
struct DynamicSimConfig {
  /// Application Controller load threshold; infinity disables the
  /// guard.
  double load_threshold = std::numeric_limits<double>::infinity();
  /// A task is abandoned (run fails) after this many placements.
  int max_attempts = 8;
};

/// Event-driven dynamic simulator.
class DynamicSimulator {
 public:
  /// Drives `vdce`'s testbed and every one of its sites; `vdce` and
  /// `task_db` must outlive the simulator.
  DynamicSimulator(rt::LocalVdce& vdce,
                   const repo::TaskPerformanceDb& task_db,
                   DynamicSimConfig config = {});

  /// Runs `graph` under `allocation` starting at `start_at`.  Throws
  /// SchedulingError if a task exhausts max_attempts or no feasible
  /// host survives.
  [[nodiscard]] SimResult run(const afg::FlowGraph& graph,
                              const sched::AllocationTable& allocation,
                              TimePoint start_at = 0.0);

 private:
  netsim::VirtualTestbed* testbed_;
  const repo::TaskPerformanceDb* task_db_;
  std::vector<rt::SiteStack>* sites_;
  DynamicSimConfig config_;
};

}  // namespace vdce::sim
