#include "scheduler/site_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace vdce::sched {

SiteScheduler::SiteScheduler(SiteId local_site, SiteDirectory& directory,
                             SiteSchedulerConfig config)
    : local_site_(local_site), directory_(&directory), config_(config) {}

std::vector<SiteId> SiteScheduler::select_nearest_sites() const {
  // Step 2: the k nearest remote sites by WAN distance.  Only k of N
  // sites survive, so a partial sort suffices.
  const std::vector<SiteId> all = directory_->sites();
  std::vector<SiteId> remotes;
  remotes.reserve(all.size());
  for (const SiteId s : all) {
    if (s != local_site_) remotes.push_back(s);
  }
  const std::size_t k = std::min(config_.k_nearest, remotes.size());
  std::partial_sort(remotes.begin(),
                    remotes.begin() + static_cast<std::ptrdiff_t>(k),
                    remotes.end(),
                    [&](SiteId a, SiteId b) {
                      const Duration da =
                          directory_->site_distance(local_site_, a);
                      const Duration db =
                          directory_->site_distance(local_site_, b);
                      if (da != db) return da < db;
                      return a < b;
                    });
  remotes.resize(k);
  return remotes;
}

AllocationTable SiteScheduler::schedule(const afg::FlowGraph& graph) {
  graph.validate();

  common::ScopedSpan sched_span("schedule", "scheduler");
  if (sched_span.active()) {
    sched_span.rename("schedule:" + graph.name());
    sched_span.arg("tasks", graph.task_count());
  }
  // Instruments resolved once per process (registry references are
  // stable): the registry's mutex+map walk stays off the hot path.
  static common::Counter& m_schedules =
      common::MetricsRegistry::global().counter("scheduler.schedules");
  static common::Counter& m_placed =
      common::MetricsRegistry::global().counter("scheduler.tasks_placed");
  m_schedules.add(1);

  // Steps 2-5: consult the local site plus the k nearest remotes.
  consulted_.clear();
  consulted_.push_back(local_site_);
  for (const SiteId s : select_nearest_sites()) consulted_.push_back(s);
  if (sched_span.active()) {
    sched_span.arg("sites_consulted", consulted_.size());
  }

  // Steps 3-5: the AFG multicast.  Each consulted site's Host Selection
  // round is independent, so the rounds fan out across the shared pool
  // (the calling thread participates); answers land by index, which
  // keeps the gathered offers identical to the serial consultation.
  const std::size_t helpers = config_.threads > 1 ? config_.threads - 1 : 0;
  std::vector<HostSelectionMap> offers(consulted_.size());
  common::ThreadPool::shared_parallel_for(
      0, consulted_.size(), 1,
      [&](std::size_t i) {
        common::ScopedSpan consult_span("site_consult", "scheduler");
        if (consult_span.active()) {
          consult_span.rename("site:" + std::to_string(consulted_[i].value()));
          consult_span.arg("site", consulted_[i].value());
          consult_span.arg("local", consulted_[i] == local_site_ ? 1 : 0);
        }
        offers[i] =
            directory_->host_selection(consulted_[i], graph, config_.threads);
      },
      helpers);

  // Levels from base-processor computation costs (Section 2.2), fixed
  // before the scheduling loop runs.
  const auto levels = afg::compute_levels(graph, [&](const afg::TaskNode& n) {
    return directory_->base_time(n.library_task) * n.props.input_size;
  });

  // Priority of a ready task under the configured policy.
  const auto better = [&](TaskId a, TaskId b) {
    switch (config_.priority) {
      case PriorityPolicy::kLevel: {
        const double la = levels.at(a);
        const double lb = levels.at(b);
        if (la != lb) return la > lb;
        return a < b;
      }
      case PriorityPolicy::kFifo:
        return a < b;
      case PriorityPolicy::kRandomized: {
        const auto h = [](TaskId t) {
          std::uint64_t x = t.value() * 0x9E3779B97F4A7C15ull + 1;
          x ^= x >> 29;
          x *= 0xBF58476D1CE4E5B9ull;
          x ^= x >> 32;
          return x;
        };
        const auto ha = h(a);
        const auto hb = h(b);
        if (ha != hb) return ha < hb;
        return a < b;
      }
    }
    return a < b;
  };

  // Step 6: ready set bookkeeping.
  std::unordered_map<TaskId, std::size_t> unscheduled_parents;
  for (const afg::TaskNode& n : graph.tasks()) {
    unscheduled_parents[n.id] = graph.parents(n.id).size();
  }
  // Priority heap over the ready set: `better` is a strict total order
  // (every policy tie-breaks on the task id), so popping the heap top
  // selects exactly the task the old linear min-scan picked, in O(log n).
  const auto heap_after = [&](TaskId a, TaskId b) { return better(b, a); };
  std::priority_queue<TaskId, std::vector<TaskId>, decltype(heap_after)>
      ready(heap_after);
  for (const TaskId id : graph.entry_tasks()) ready.push(id);

  AllocationTable table(graph.name());
  // Queue-aware extension: estimated-completion-time bookkeeping.
  // host_free[h] = when h finishes its committed work; finish_est[t] =
  // estimated finish of an already-placed task.  A candidate's cost is
  // its estimated completion max(host_free, data_ready) + predicted, so
  // sequential chains are not penalised while parallel siblings spread.
  std::unordered_map<HostId, Duration> host_free;
  std::unordered_map<TaskId, Duration> finish_est;

  // Step 7: schedule ready tasks in priority order.
  while (!ready.empty()) {
    const TaskId task = ready.top();
    ready.pop();
    const afg::TaskNode& node = graph.task(task);

    // Does the task consume input files from its parents?
    const auto parents = graph.parents(task);
    bool needs_inputs = false;
    for (const TaskId p : parents) {
      if (graph.link(p, task).transfer_mb > 0.0) {
        needs_inputs = true;
        break;
      }
    }

    SiteId best_site = SiteId::invalid();
    Duration best_cost = std::numeric_limits<double>::infinity();
    std::vector<HostId> best_hosts;
    Duration best_predicted = 0.0;

    const bool parallel = node.props.mode == afg::ComputeMode::kParallel;

    for (std::size_t si = 0; si < consulted_.size(); ++si) {
      const SiteId s = consulted_[si];
      const HostSelection& offer = offers[si].at(task);
      if (!offer.feasible()) continue;

      Duration transfer_cost = 0.0;
      if (needs_inputs && config_.transfer_aware) {
        // Sum the transfer of every parent's output into site s.
        for (const TaskId p : parents) {
          const SiteId parent_site = table.entry(p).site;
          transfer_cost += directory_->transfer_time(
              parent_site, s, graph.link(p, task).transfer_mb);
        }
      }

      if (config_.queue_aware && !parallel) {
        // Estimated completion on every candidate host, with the input
        // arrival time evaluated per host (intra-site LAN included).
        for (const auto& [predicted, host] : offer.scored) {
          Duration data_ready = 0.0;
          for (const TaskId p : parents) {
            Duration arrival = finish_est.at(p);
            if (config_.transfer_aware) {
              arrival += directory_->host_transfer_time(
                  table.entry(p).primary_host(), host,
                  graph.link(p, task).transfer_mb);
            }
            data_ready = std::max(data_ready, arrival);
          }
          const auto free_it = host_free.find(host);
          const Duration start = std::max(
              data_ready, free_it == host_free.end() ? 0.0 : free_it->second);
          const Duration cost = start + predicted;
          if (cost < best_cost) {
            best_cost = cost;
            best_site = s;
            best_hosts = {host};
            best_predicted = predicted;
          }
        }
      } else {
        const Duration cost = offer.predicted_s + transfer_cost;
        // Tie-break: prefer the local site, then the lower site id (the
        // iteration order of consulted_ starts with the local site).
        if (cost < best_cost) {
          best_cost = cost;
          best_site = s;
          best_hosts = offer.hosts;
          best_predicted = offer.predicted_s;
        }
      }
    }

    if (!best_site.valid()) {
      throw SchedulingError("no feasible resource for task '" + node.label +
                            "' (" + node.library_task + ") in the " +
                            std::to_string(consulted_.size()) +
                            " consulted site(s)");
    }

    if (config_.queue_aware) {
      // Completion estimate for this task under the chosen placement.
      Duration data_ready = 0.0;
      for (const TaskId p : parents) {
        Duration arrival = finish_est.at(p);
        if (config_.transfer_aware) {
          arrival += directory_->host_transfer_time(
              table.entry(p).primary_host(), best_hosts.front(),
              graph.link(p, task).transfer_mb);
        }
        data_ready = std::max(data_ready, arrival);
      }
      Duration start = data_ready;
      for (const HostId h : best_hosts) {
        const auto free_it = host_free.find(h);
        if (free_it != host_free.end()) {
          start = std::max(start, free_it->second);
        }
      }
      const Duration finish = start + best_predicted;
      finish_est[task] = finish;
      for (const HostId h : best_hosts) host_free[h] = finish;
    }

    if (common::trace_enabled()) {
      common::trace_instant(
          "placed", "scheduler",
          {{"task", node.label},
           {"site", std::to_string(best_site.value())},
           {"host", std::to_string(best_hosts.front().value())},
           {"predicted_s", std::to_string(best_predicted)},
           {"cost_s", std::to_string(best_cost)}});
    }
    m_placed.add(1);

    AllocationEntry entry;
    entry.task = task;
    entry.task_label = node.label;
    entry.library_task = node.library_task;
    entry.hosts = best_hosts;
    entry.site = best_site;
    entry.predicted_s = best_predicted;
    table.add(std::move(entry));

    // Release children whose parents are now all scheduled.
    for (const TaskId child : graph.children(task)) {
      if (--unscheduled_parents[child] == 0) ready.push(child);
    }
  }

  return table;
}

std::optional<AllocationEntry> SiteScheduler::reschedule(
    const afg::FlowGraph& graph, const AllocationTable& allocation,
    TaskId task, const std::vector<HostId>& excluded) const {
  const afg::TaskNode& node = graph.task(task);

  common::ScopedSpan resched_span("reschedule", "scheduler");
  if (resched_span.active()) {
    resched_span.rename("reschedule:" + node.label);
    resched_span.arg("excluded_hosts", excluded.size());
  }
  static common::Counter& m_reschedules =
      common::MetricsRegistry::global().counter(
          "scheduler.reschedule_requests");
  m_reschedules.add(1);

  // Same consultation set as schedule(), rebuilt locally so concurrent
  // reschedules (and a racing schedule() pass) never share state.
  std::vector<SiteId> consulted;
  consulted.push_back(local_site_);
  for (const SiteId s : select_nearest_sites()) consulted.push_back(s);

  const auto parents = graph.parents(task);

  SiteId best_site = SiteId::invalid();
  Duration best_cost = std::numeric_limits<double>::infinity();
  std::vector<HostId> best_hosts;
  Duration best_predicted = 0.0;

  for (const SiteId s : consulted) {
    const HostSelection offer =
        directory_->host_reselection(s, node, excluded);
    if (!offer.feasible()) continue;

    Duration transfer_cost = 0.0;
    if (config_.transfer_aware) {
      // The parents already ran (or are placed): their outputs must
      // reach the replacement site from wherever they were allocated.
      for (const TaskId p : parents) {
        const double mb = graph.link(p, task).transfer_mb;
        if (mb > 0.0) {
          transfer_cost +=
              directory_->transfer_time(allocation.entry(p).site, s, mb);
        }
      }
    }

    const Duration cost = offer.predicted_s + transfer_cost;
    if (cost < best_cost) {
      best_cost = cost;
      best_site = s;
      best_hosts = offer.hosts;
      best_predicted = offer.predicted_s;
    }
  }

  if (!best_site.valid()) {
    if (resched_span.active()) resched_span.arg("outcome", "infeasible");
    return std::nullopt;
  }
  if (resched_span.active()) {
    resched_span.arg("outcome", "re_placed");
    resched_span.arg("site", best_site.value());
    resched_span.arg("host", best_hosts.front().value());
  }

  AllocationEntry entry;
  entry.task = task;
  entry.task_label = node.label;
  entry.library_task = node.library_task;
  entry.hosts = std::move(best_hosts);
  entry.site = best_site;
  entry.predicted_s = best_predicted;
  return entry;
}

}  // namespace vdce::sched
