#include "runtime/site_manager.hpp"

#include "common/log.hpp"

namespace vdce::rt {

SiteManager::SiteManager(SiteId site, repo::SiteRepository& repository,
                         predict::LoadForecaster& forecaster)
    : site_(site),
      repository_(&repository),
      forecaster_(&forecaster) {}

void SiteManager::handle_workload(const WorkloadUpdate& update) {
  ++stats_.workload_updates;
  auto rec = repository_->resources().find(update.host);
  if (!rec) return;  // host was removed; stale update
  rec->dynamic_attrs.cpu_load = update.cpu_load;
  rec->dynamic_attrs.available_memory_mb = update.available_memory_mb;
  rec->dynamic_attrs.last_update = update.when;
  repository_->resources().update_dynamic(update.host, rec->dynamic_attrs);
  forecaster_->observe(update.host, update.cpu_load);
}

void SiteManager::handle_liveness(const LivenessChange& change) {
  ++stats_.liveness_changes;
  if (!repository_->resources().find(change.host)) return;
  repository_->resources().set_alive(change.host, change.alive, change.when);
  common::log_info("site_manager",
                   "host ", change.host.value(), " marked ",
                   change.alive ? "up" : "down", " at t=", change.when);
  if (!change.alive) forecaster_->forget(change.host);
}

void SiteManager::handle_network(const NetworkMeasurement& measurement) {
  ++stats_.network_measurements;
  repo::NetworkAttrs attrs;
  attrs.latency_s = measurement.latency_s;
  attrs.transfer_mb_per_s = measurement.transfer_mb_per_s;
  attrs.last_update = measurement.when;
  repository_->resources().update_group_network(measurement.group,
                                                measurement.group, attrs);
}

void SiteManager::record_task_time(const std::string& library_task,
                                   Duration elapsed_s) {
  stats_.task_times_recorded.fetch_add(1, std::memory_order_relaxed);
  repository_->tasks().record_measurement(library_task, elapsed_s);
}

repo::UserAccount SiteManager::login(const std::string& user,
                                     const std::string& password) {
  ++stats_.logins;
  return repository_->users().authenticate(user, password);
}

std::map<HostId, std::vector<sched::AllocationEntry>>
SiteManager::distribute_allocation(const sched::AllocationTable& table) {
  std::map<HostId, std::vector<sched::AllocationEntry>> portions;
  for (const sched::AllocationEntry& row : table.rows()) {
    if (row.site != site_) continue;
    for (const HostId host : row.hosts) {
      portions[host].push_back(row);
      ++stats_.allocation_rows_distributed;
    }
  }
  return portions;
}

}  // namespace vdce::rt
