// The Site Manager.
//
// "At each site, the VDCE Server runs the server software, called site
//  manager, which handles the inter-site communications and bridges the
//  VDCE modules to the web-based repository."  (Section 2)
//
// Responsibilities implemented here (Figure 6):
//   * updating the site repository with filtered workload updates,
//     liveness changes and network measurements;
//   * feeding the load forecaster the scheduler predicts from;
//   * storing newly measured task execution times after each run;
//   * authenticating users (the servlet front-end's login);
//   * splitting a resource allocation table into the per-host portions
//     the Group Managers deliver to Application Controllers.
//
// The site's answer to an AFG multicast (Host Selection, Figure 5) is
// sched::RepositoryDirectory over this manager's repository and
// forecaster: in process, in the simulators and in the site daemon.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "predict/forecaster.hpp"
#include "repository/repository.hpp"
#include "runtime/messages.hpp"
#include "scheduler/allocation.hpp"

namespace vdce::rt {

/// Counters for the control-plane experiments.
/// `task_times_recorded` is atomic: with concurrent applications,
/// several engine runs feed their measurements back through one
/// manager at once.
struct SiteManagerStats {
  std::size_t workload_updates = 0;
  std::size_t liveness_changes = 0;
  std::size_t network_measurements = 0;
  std::atomic<std::size_t> task_times_recorded{0};
  std::size_t allocation_rows_distributed = 0;
  std::size_t logins = 0;
};

/// The per-site server process.
class SiteManager {
 public:
  /// Both references must outlive the manager.
  SiteManager(SiteId site, repo::SiteRepository& repository,
              predict::LoadForecaster& forecaster);

  [[nodiscard]] SiteId site() const { return site_; }

  // -- resource controller inputs -------------------------------------
  void handle_workload(const WorkloadUpdate& update);
  void handle_liveness(const LivenessChange& change);
  void handle_network(const NetworkMeasurement& measurement);

  // -- post-execution feedback -----------------------------------------
  /// "After an application execution is completed, the newly measured
  /// execution time of each application task is stored in the
  /// task-performance database."  Thread-safe: with concurrent
  /// applications several engine runs feed back through one manager.
  void record_task_time(const std::string& library_task, Duration elapsed_s);

  // -- web front-end ---------------------------------------------------
  /// Authenticates a user against the user-accounts database; throws
  /// AuthError on failure.  (The servlet login step before the Editor
  /// loads.)
  [[nodiscard]] repo::UserAccount login(const std::string& user,
                                        const std::string& password);

  // -- allocation distribution ------------------------------------------
  /// Splits the allocation table into per-host portions ("sends ...
  /// related parts of the resource allocation table to the Application
  /// Controller of the machine").  Only hosts of this site appear.
  [[nodiscard]] std::map<HostId, std::vector<sched::AllocationEntry>>
  distribute_allocation(const sched::AllocationTable& table);

  [[nodiscard]] const SiteManagerStats& stats() const { return stats_; }

 private:
  SiteId site_;
  repo::SiteRepository* repository_;
  predict::LoadForecaster* forecaster_;
  SiteManagerStats stats_;
};

}  // namespace vdce::rt
