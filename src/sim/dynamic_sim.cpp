#include "sim/dynamic_sim.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/log.hpp"
#include "predict/predictor.hpp"
#include "scheduler/eligibility.hpp"
#include "scheduler/scheduler_iface.hpp"

namespace vdce::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Control-plane tick (monitor/GM/SM advance), seconds.
constexpr common::Duration kTickS = 1.0;
/// Scheduler round-trip charged on every rescheduling.
constexpr common::Duration kRescheduleOverheadS = 1.0;
/// Delay between a host dying and the Group Manager's echo round
/// noticing (half an echo period on average).
constexpr common::Duration kFailureDetectionDelayS = 2.0;
}

DynamicSimulator::DynamicSimulator(rt::LocalVdce& vdce,
                                   const repo::TaskPerformanceDb& task_db,
                                   DynamicSimConfig config)
    : testbed_(&vdce.testbed),
      task_db_(&task_db),
      sites_(&vdce.sites),
      config_(config) {
  common::expects(!sites_->empty(), "dynamic simulation needs >= 1 site");
}

SimResult DynamicSimulator::run(const afg::FlowGraph& graph,
                                const sched::AllocationTable& allocation,
                                TimePoint start_at) {
  graph.validate();

  enum class Status { kWaiting, kReady, kRunning, kDone };

  struct TaskState {
    Status status = Status::kWaiting;
    std::size_t waiting_parents = 0;
    TimePoint data_ready = 0.0;
    std::vector<HostId> hosts;
    SiteId site;
    TimePoint start = 0.0;
    /// Next event for a running task: completion, failure-triggered
    /// requeue, or (checked separately) threshold kill at a tick.
    TimePoint event_time = kInf;
    bool event_is_failure = false;
    TimePoint finish = 0.0;
    Duration exec = 0.0;
    int attempts = 0;
    std::unordered_set<HostId> excluded;  // hosts this task must avoid
  };

  std::unordered_map<TaskId, TaskState> states;
  for (const afg::TaskNode& n : graph.tasks()) {
    TaskState st;
    st.waiting_parents = graph.parents(n.id).size();
    const sched::AllocationEntry& entry = allocation.entry(n.id);
    st.hosts = entry.hosts;
    st.site = entry.site;
    if (st.waiting_parents == 0) {
      st.status = Status::kReady;
      st.data_ready = start_at;
    }
    states.emplace(n.id, std::move(st));
  }

  std::unordered_map<HostId, TimePoint> host_free;
  std::unordered_map<TaskId, TimePoint> done_at;
  SimResult result;

  // Re-places one task on the best currently-believed-alive machine
  // across every site, excluding `excluded` hosts.  Mirrors the Host
  // Selection Algorithm against the *current* repository views.
  const auto replace_hosts = [&](const afg::TaskNode& node,
                                 const std::unordered_set<HostId>& excluded)
      -> std::optional<std::pair<std::vector<HostId>, SiteId>> {
    const unsigned want = node.props.mode == afg::ComputeMode::kParallel
                              ? node.props.num_processors
                              : 1u;
    double best_score = kInf;
    std::vector<HostId> best_hosts;
    SiteId best_site = SiteId::invalid();
    for (const rt::SiteStack& stack : *sites_) {
      rt::SiteManager& sm = *stack.manager;
      const predict::PerformancePredictor predictor(sm.repository(),
                                                    &sm.forecaster());
      std::vector<std::pair<double, HostId>> scored;
      for (const HostId h :
           sched::eligible_hosts(sm.repository(), node, sm.site())) {
        if (excluded.contains(h)) continue;
        scored.emplace_back(
            predictor.predict(node.library_task, node.props.input_size, h),
            h);
      }
      std::sort(scored.begin(), scored.end());
      if (scored.size() < want) continue;
      const double score = scored[want - 1].first / static_cast<double>(want);
      if (score < best_score) {
        best_score = score;
        best_site = sm.site();
        best_hosts.clear();
        for (unsigned i = 0; i < want; ++i) {
          best_hosts.push_back(scored[i].second);
        }
      }
    }
    if (!best_site.valid()) return std::nullopt;
    return std::make_pair(std::move(best_hosts), best_site);
  };

  // Requeues a task after a kill/refusal at time `when`.
  const auto reschedule_task = [&](TaskId id, TimePoint when,
                                   const char* why) {
    TaskState& st = states.at(id);
    const afg::TaskNode& node = graph.task(id);
    ++result.reschedules;
    common::log_debug("dynamic_sim", "rescheduling ", node.label, " at t=",
                      when, " (", why, ")");
    if (st.attempts >= config_.max_attempts) {
      throw sched::SchedulingError("task " + node.label + " exceeded " +
                                   std::to_string(config_.max_attempts) +
                                   " placement attempts");
    }
    const auto placement = replace_hosts(node, st.excluded);
    if (!placement) {
      throw sched::SchedulingError("no surviving feasible host for task " +
                                   node.label);
    }
    st.hosts = placement->first;
    st.site = placement->second;
    st.status = Status::kReady;
    // Inputs are re-sent from the (completed) parents to the new host.
    TimePoint data_ready = when + kRescheduleOverheadS;
    for (const TaskId parent : graph.parents(id)) {
      const Duration transfer = testbed_->transfer_time(
          states.at(parent).hosts.front(), st.hosts.front(),
          graph.link(parent, id).transfer_mb);
      data_ready = std::max(data_ready,
                            when + kRescheduleOverheadS + transfer);
    }
    st.data_ready = data_ready;
    st.event_time = kInf;
  };

  // Tries to move one ready task into the running state.
  const auto start_task = [&](TaskId id) {
    TaskState& st = states.at(id);
    const afg::TaskNode& node = graph.task(id);
    ++st.attempts;

    TimePoint start = st.data_ready;
    for (const HostId h : st.hosts) {
      const auto it = host_free.find(h);
      if (it != host_free.end()) start = std::max(start, it->second);
    }

    const HostId primary = st.hosts.front();

    // Application Controller guards at task startup.
    if (!testbed_->is_alive(primary, start)) {
      ++result.failures_hit;
      st.excluded.insert(primary);
      reschedule_task(id, start + kFailureDetectionDelayS,
                      "host dead at start");
      return;
    }
    const double load_now = testbed_->true_load(primary, start);
    if (load_now > config_.load_threshold) {
      st.excluded.insert(primary);
      reschedule_task(id, start, "load above threshold at start");
      return;
    }

    const auto rec = task_db_->get(node.library_task);
    Duration exec = 0.0;
    for (const HostId h : st.hosts) {
      exec = std::max(exec, testbed_->execution_time_at(
                                rec, node.props.input_size, h, start));
    }
    exec /= static_cast<double>(st.hosts.size());
    const TimePoint finish = start + exec;

    st.status = Status::kRunning;
    st.start = start;
    st.exec = exec;
    st.finish = finish;
    st.event_is_failure = false;
    st.event_time = finish;

    // Will any assigned host die mid-run?
    for (const HostId h : st.hosts) {
      for (TimePoint probe = start; probe < finish; probe += kTickS) {
        if (!testbed_->is_alive(h, probe)) {
          st.event_is_failure = true;
          st.event_time = probe + kFailureDetectionDelayS;
          st.excluded.insert(h);
          break;
        }
      }
      if (st.event_is_failure) break;
    }

    for (const HostId h : st.hosts) host_free[h] = finish;
  };

  TimePoint next_tick = start_at + kTickS;
  std::size_t done_count = 0;
  const std::size_t total = graph.task_count();
  TimePoint now = start_at;

  // Start the initially-ready tasks.
  for (const afg::TaskNode& n : graph.tasks()) {
    if (states.at(n.id).status == Status::kReady) start_task(n.id);
  }

  while (done_count < total) {
    // Next event: earliest running-task event vs next control tick.
    TimePoint next_event = kInf;
    TaskId next_task = TaskId::invalid();
    for (const auto& [id, st] : states) {
      if (st.status != Status::kRunning) continue;
      if (st.event_time < next_event ||
          (st.event_time == next_event && id < next_task)) {
        next_event = st.event_time;
        next_task = id;
      }
    }
    // Also consider ready tasks waiting for their data_ready moment.
    for (const auto& [id, st] : states) {
      if (st.status != Status::kReady) continue;
      if (st.data_ready < next_event ||
          (st.data_ready == next_event && id < next_task)) {
        next_event = st.data_ready;
        next_task = id;
      }
    }

    if (next_event == kInf && next_tick == kInf) {
      throw common::StateError("dynamic simulation stalled");
    }

    if (next_tick <= next_event) {
      now = next_tick;
      next_tick += kTickS;
      // Advance every site's control plane.
      for (const rt::SiteStack& stack : *sites_) stack.control->tick(now);
      // Application Controllers' in-flight threshold checks.
      if (config_.load_threshold != kInf) {
        for (auto& [id, st] : states) {
          if (st.status != Status::kRunning) continue;
          if (now <= st.start || now >= st.event_time) continue;
          const double load =
              testbed_->true_load(st.hosts.front(), now);
          if (load > config_.load_threshold) {
            st.excluded.insert(st.hosts.front());
            st.status = Status::kReady;  // terminated by the controller
            for (const HostId h : st.hosts) {
              host_free[h] = std::min(host_free[h], now);
            }
            reschedule_task(id, now, "load above threshold while running");
          }
        }
      }
      continue;
    }

    now = next_event;
    TaskState& st = states.at(next_task);

    if (st.status == Status::kReady) {
      start_task(next_task);
      continue;
    }

    // Running-task event.
    if (st.event_is_failure) {
      ++result.failures_hit;
      st.status = Status::kReady;
      for (const HostId h : st.hosts) {
        host_free[h] = std::min(host_free[h], now);
      }
      reschedule_task(next_task, now, "host failed while running");
      continue;
    }

    // Successful completion.
    st.status = Status::kDone;
    ++done_count;
    done_at[next_task] = st.finish;
    result.makespan_s = std::max(result.makespan_s, st.finish - start_at);

    const afg::TaskNode& node = graph.task(next_task);
    SimTaskRecord rec;
    rec.task = next_task;
    rec.label = node.label;
    rec.library_task = node.library_task;
    rec.host = st.hosts.front();
    rec.site = st.site;
    rec.data_ready = st.data_ready;
    rec.start = st.start;
    rec.finish = st.finish;
    rec.exec_s = st.exec;
    rec.attempts = st.attempts;
    result.records.push_back(rec);

    // Feed the measured time back ("the newly measured execution time of
    // each application task is stored in the task-performance
    // database").
    for (const rt::SiteStack& stack : *sites_) {
      if (stack.manager->site() == st.site) {
        stack.manager->record_task_time(node.library_task, st.exec);
      }
    }

    // Release children.
    for (const TaskId child : graph.children(next_task)) {
      TaskState& cs = states.at(child);
      if (--cs.waiting_parents != 0) continue;
      TimePoint data_ready = now;
      for (const TaskId parent : graph.parents(child)) {
        const Duration transfer = testbed_->transfer_time(
            states.at(parent).hosts.front(), cs.hosts.front(),
            graph.link(parent, child).transfer_mb);
        data_ready = std::max(data_ready, done_at.at(parent) + transfer);
      }
      cs.status = Status::kReady;
      cs.data_ready = data_ready;
    }
  }

  std::sort(result.records.begin(), result.records.end(),
            [](const SimTaskRecord& a, const SimTaskRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.task < b.task;
            });
  return result;
}

}  // namespace vdce::sim
