#include "sim/dynamic_sim.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"
#include "common/log.hpp"
#include "runtime/recovery.hpp"

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
                                   const sched::SiteScheduler& scheduler,
                                   rt::EngineConfig config)
    : testbed_(&vdce.testbed),
      task_db_(&task_db),
      sites_(&vdce.sites),
      scheduler_(&scheduler),
      config_(config) {
  common::expects(!sites_->empty(), "dynamic simulation needs >= 1 site");
}

SimResult DynamicSimulator::run(const afg::FlowGraph& graph,
                                const sched::AllocationTable& allocation,
                                TimePoint start_at,
                                const std::function<void(TimePoint)>& on_tick) {
  graph.validate();

  enum class Status { kWaiting, kReady, kRunning, kDone };

  struct TaskState {
    Status status = Status::kWaiting;
    std::size_t waiting_parents = 0;
    TimePoint data_ready = 0.0;
    TimePoint start = 0.0;
    /// Next event for a running task: completion, failure-triggered
    /// requeue, or (checked separately) threshold kill at a tick.
    TimePoint event_time = kInf;
    /// The assigned host that dies mid-run: the event is its failure.
    std::optional<HostId> dying_host;
    TimePoint finish = 0.0;
    Duration exec = 0.0;
    /// Charged attempts, the first run included (rt::decide_recovery).
    int attempts = 1;
    /// The engine's exclusion rule: every failed or refusing host is
    /// appended, in failure order, and the list is never cleared.
    std::vector<HostId> excluded;
  };

  // The simulator's own allocation table.  A re-placement moves the
  // task's row, as the submission service does, so a later
  // re-placement charges transfers from where the parents really ran.
  sched::AllocationTable table = allocation;

  std::unordered_map<TaskId, TaskState> states;
  for (const afg::TaskNode& n : graph.tasks()) {
    TaskState st;
    st.waiting_parents = graph.parents(n.id).size();
    if (st.waiting_parents == 0) {
      st.status = Status::kReady;
      st.data_ready = start_at;
    }
    states.emplace(n.id, std::move(st));
  }

  std::unordered_map<HostId, TimePoint> host_free;
  std::unordered_map<TaskId, TimePoint> done_at;
  SimResult result;

  // Requeues a task after a kill or refusal on `host` at time `when`.
  // The decision is the runtime's (rt::decide_recovery).  A task starts
  // only after its parents finish, so the simulator has no collateral
  // failures, and its only kills are host deaths: every kill or refusal
  // is charged and moves the task.
  const auto reschedule_task = [&](TaskId id, HostId host, bool host_alive,
                                   rt::AttemptOutcome outcome, TimePoint when,
                                   const char* why) {
    TaskState& st = states.at(id);
    const afg::TaskNode& node = graph.task(id);
    ++result.reschedules;
    common::log_debug("dynamic_sim", "rescheduling ", node.label, " at t=",
                      when, " (", why, ")");
    const rt::StageFacts facts{.attempts = st.attempts,
                               .host_alive = host_alive,
                               .outcome = outcome};
    const rt::RecoveryDecision decision =
        rt::decide_recovery({&facts, 1}, 0, config_.max_attempts).front();
    if (decision.action == rt::RecoveryAction::kFail) {
      throw sched::SchedulingError(rt::attempts_exceeded(
          node.label, config_.max_attempts,
          "task " + node.label + " failed: " + why));
    }
    if (decision.charge) ++st.attempts;
    st.excluded.push_back(host);
    auto placement = scheduler_->reschedule(graph, table, id, st.excluded);
    if (!placement) {
      throw sched::SchedulingError("no surviving feasible host for task " +
                                   node.label);
    }
    table.replace(std::move(*placement));
    st.status = Status::kReady;
    // Inputs are re-sent from the (completed) parents to the new host.
    TimePoint data_ready = when + kRescheduleOverheadS;
    for (const TaskId parent : graph.parents(id)) {
      const Duration transfer = testbed_->transfer_time(
          table.entry(parent).primary_host(),
          table.entry(id).primary_host(),
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
    const std::vector<HostId> hosts = table.entry(id).hosts;

    TimePoint start = st.data_ready;
    for (const HostId h : hosts) {
      const auto it = host_free.find(h);
      if (it != host_free.end()) start = std::max(start, it->second);
    }

    const HostId primary = hosts.front();

    // Application Controller guards at task startup.
    if (!testbed_->is_alive(primary, start)) {
      ++result.failures_hit;
      reschedule_task(id, primary, false, rt::AttemptOutcome::kRefused,
                      start + kFailureDetectionDelayS, "host dead at start");
      return;
    }
    const double load_now = testbed_->true_load(primary, start);
    if (load_now > config_.load_threshold) {
      reschedule_task(id, primary, true, rt::AttemptOutcome::kRefused, start,
                      "load above threshold at start");
      return;
    }

    const auto rec = task_db_->get(node.library_task);
    Duration exec = 0.0;
    for (const HostId h : hosts) {
      exec = std::max(exec, testbed_->execution_time_at(
                                rec, node.props.input_size, h, start));
    }
    exec /= static_cast<double>(hosts.size());
    const TimePoint finish = start + exec;

    st.status = Status::kRunning;
    st.start = start;
    st.exec = exec;
    st.finish = finish;
    st.dying_host.reset();
    st.event_time = finish;

    // Will any assigned host die mid-run?
    for (const HostId h : hosts) {
      for (TimePoint probe = start; probe < finish; probe += kTickS) {
        if (!testbed_->is_alive(h, probe)) {
          st.dying_host = h;
          st.event_time = probe + kFailureDetectionDelayS;
          break;
        }
      }
      if (st.dying_host) break;
    }

    for (const HostId h : hosts) host_free[h] = finish;
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
      if (on_tick) on_tick(now);
      // Application Controllers' in-flight threshold checks.
      if (config_.load_threshold != kInf) {
        for (auto& [id, st] : states) {
          if (st.status != Status::kRunning) continue;
          if (now <= st.start || now >= st.event_time) continue;
          const HostId primary = table.entry(id).primary_host();
          if (testbed_->true_load(primary, now) > config_.load_threshold) {
            st.status = Status::kReady;  // terminated by the controller
            for (const HostId h : table.entry(id).hosts) {
              host_free[h] = std::min(host_free[h], now);
            }
            reschedule_task(id, primary, true, rt::AttemptOutcome::kRefused,
                            now, "load above threshold while running");
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
    if (st.dying_host) {
      ++result.failures_hit;
      st.status = Status::kReady;
      for (const HostId h : table.entry(next_task).hosts) {
        host_free[h] = std::min(host_free[h], now);
      }
      reschedule_task(next_task, *st.dying_host, false,
                      rt::AttemptOutcome::kFailed, now,
                      "host failed while running");
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
    rec.host = table.entry(next_task).primary_host();
    rec.site = table.entry(next_task).site;
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
      if (stack.manager->site() == rec.site) {
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
            table.entry(parent).primary_host(),
            table.entry(child).primary_host(),
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
