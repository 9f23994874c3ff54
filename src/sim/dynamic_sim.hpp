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
// Every re-placement is the runtime's own decision:
// SiteScheduler::reschedule over the sites' *current* repository views
// (the local site plus its k nearest, transfer cost charged from where
// the parents ran), charged by the live engine's recovery decision
// (rt::decide_recovery) under its attempt budget, with its exclusion
// rule.  So the benches (experiment E9) measure the recovery policy the
// runtime executes.
#pragma once

#include <functional>

#include "runtime/engine.hpp"
#include "runtime/site_stack.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/static_sim.hpp"

namespace vdce::sim {

/// Event-driven dynamic simulator.
class DynamicSimulator {
 public:
  /// Drives `vdce`'s testbed and every one of its sites.  `scheduler`
  /// is the one that placed the application; it re-places every task
  /// the simulation kills or refuses.  Of `config`, only the engine's
  /// budget (`max_attempts`) and load guard (`load_threshold`) apply.
  /// `vdce`, `task_db` and `scheduler` must outlive the simulator.
  DynamicSimulator(rt::LocalVdce& vdce,
                   const repo::TaskPerformanceDb& task_db,
                   const sched::SiteScheduler& scheduler,
                   rt::EngineConfig config = {});

  /// Runs `graph` under `allocation` starting at `start_at`.
  /// `on_tick`, when given, is called at every control tick once every
  /// site's control plane has advanced to it, so an observer can read
  /// the repositories while the run is in flight.  Throws
  /// SchedulingError if a task exhausts max_attempts or no feasible
  /// host survives.
  [[nodiscard]] SimResult run(
      const afg::FlowGraph& graph, const sched::AllocationTable& allocation,
      TimePoint start_at = 0.0,
      const std::function<void(TimePoint)>& on_tick = {});

 private:
  netsim::VirtualTestbed* testbed_;
  const repo::TaskPerformanceDb* task_db_;
  std::vector<rt::SiteStack>* sites_;
  const sched::SiteScheduler* scheduler_;
  rt::EngineConfig config_;
};

}  // namespace vdce::sim
