// E15: runtime fault tolerance (D9) — makespan vs injected failure rate
// on the *live* execution engine (real threads + channels), not the
// dynamic simulator.
//
//   (a) k allocated hosts dead at startup: every affected task is
//       refused by its fault guard, re-placed through
//       SiteScheduler::reschedule and retried inside the gang;
//   (b) transient task-error rate sweep: a failure ends the round, and
//       the next round re-runs every unfinished stage together (the
//       failed tasks and the consumers their channel teardown took
//       down) after one backoff.  Only the failed tasks are charged:
//       their consumers' re-runs are collateral and free.
//
// Each sweep checks its recovered count in every run and prints "ok" or
// "FAILED"; the bench exits 1 when a run throws or a count is off.  The
// makespan clauses of its shape sentences are not checked.
#include <atomic>
#include <iomanip>
#include <iostream>
#include <memory>
#include <set>

#include "bench/harness.hpp"
#include "runtime/site_stack.hpp"
#include "runtime/engine.hpp"
#include "scheduler/site_scheduler.hpp"

namespace {

using namespace vdce;
using common::HostId;
using common::SiteId;
using common::TaskId;

constexpr int kPairs = 12;
constexpr int kReps = 5;

/// kPairs independent source -> sink pipelines: wide enough that k
/// distinct dead hosts each hit a different task.
afg::FlowGraph pair_graph() {
  afg::FlowGraph g("fault-sweep");
  for (int i = 0; i < kPairs; ++i) {
    const auto src = g.add_task("synth_source", "src" + std::to_string(i));
    const auto sink = g.add_task("synth_sink", "snk" + std::to_string(i));
    g.add_link(src, sink, 0.1);
  }
  return g;
}

/// Distinct primary hosts of the allocation, in task order.
std::vector<HostId> distinct_primaries(
    const sched::AllocationTable& allocation) {
  std::vector<HostId> hosts;
  std::set<HostId> seen;
  for (const auto& row : allocation.rows()) {
    if (seen.insert(row.primary_host()).second) {
      hosts.push_back(row.primary_host());
    }
  }
  return hosts;
}

/// E15a; false when a run throws or its recovered count is not the
/// number of tasks whose allocated host is dead.
bool dead_host_sweep() {
  bench::banner("E15a",
                "live-engine makespan vs dead allocated hosts (D9)");
  bench::header(
      "dead_hosts,mean_makespan_ms,inflation,recovered,reschedules");

  bool ok = true;
  double baseline = 0.0;
  for (int dead = 0; dead <= 4; ++dead) {
    double makespan_ms = 0.0;
    std::size_t recovered = 0;
    std::size_t reschedules = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      rt::LocalVdce v(netsim::make_campus_testbed(13));
      v.warm_up(10.0);
      const auto graph = pair_graph();
      // Queue-aware so the 12 pipelines spread over distinct hosts and
      // each dead host hits a bounded slice of the application.
      sched::SiteScheduler scheduler(SiteId(0), v.directory,
                                     {.queue_aware = true});
      auto allocation = scheduler.schedule(graph);

      const auto primaries = distinct_primaries(allocation);
      for (int k = 0; k < dead && k < static_cast<int>(primaries.size());
           ++k) {
        v.testbed.fail_host(primaries[k], 50.0, 1e6);
      }
      v.testbed.set_live_time(60.0);
      std::size_t on_dead_hosts = 0;
      for (const auto& row : allocation.rows()) {
        if (!v.testbed.is_alive_now(row.primary_host())) ++on_dead_hosts;
      }

      rt::FaultTolerance ft;
      ft.host_alive = v.testbed.liveness_probe();
      ft.reschedule = [&](const afg::TaskNode& node,
                          const std::vector<HostId>& excluded) {
        return scheduler.reschedule(graph, allocation, node.id, excluded);
      };
      ft.on_failure = [&](const rt::RescheduleRequest& request) {
        for (auto& site : v.sites) site.control->report_task_failure(request);
      };

      rt::ExecutionEngine engine(tasklib::builtin_registry());
      try {
        const auto result =
            engine.execute(graph, allocation, nullptr, nullptr, &ft);
        makespan_ms += result.makespan_s * 1e3;
        recovered += result.failures_recovered;
        reschedules += result.reschedules;
        ok = ok && result.failures_recovered == on_dead_hosts;
      } catch (const std::exception& e) {
        std::cout << dead << ",error," << e.what() << "\n";
        ok = false;
      }
    }
    makespan_ms /= kReps;
    if (dead == 0) baseline = makespan_ms;
    std::cout << dead << "," << std::fixed << std::setprecision(2)
              << makespan_ms << "," << std::setprecision(2)
              << makespan_ms / baseline << "," << std::setprecision(1)
              << static_cast<double>(recovered) / kReps << ","
              << static_cast<double>(reschedules) / kReps << "\n";
  }
  std::cout << "shape check: every run completes and recovered == tasks "
               "whose allocated host is dead, in every run: "
            << (ok ? "ok" : "FAILED") << "\n"
            << "(not checked) cost is backoff-dominated (one 10 ms round "
               "per reschedule wave, a second when the replacement is dead "
               "too -- reschedules > recovered), not proportional to "
               "application size.\n";
  return ok;
}

/// E15b; false when a run throws or its recovered count is not the
/// number of flaky sources.
bool transient_error_sweep() {
  bench::banner("E15b",
                "live-engine makespan vs transient task-error rate (D9)");
  bench::header("flaky_sources,mean_makespan_ms,inflation,recovered");

  constexpr int kHosts = 8;
  bool ok = true;
  double baseline = 0.0;
  for (const int flaky : {0, 2, 4, 8}) {
    double makespan_ms = 0.0;
    std::size_t recovered = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      tasklib::TaskRegistry registry;
      tasklib::register_builtin_tasks(registry);
      for (int i = 0; i < flaky; ++i) {
        tasklib::LibraryEntry entry =
            tasklib::builtin_registry().get("synth_source");
        entry.name = "flaky_source_" + std::to_string(i);
        auto calls = std::make_shared<std::atomic<int>>(0);
        entry.fn = [calls, inner = entry.fn](
                       const std::vector<tasklib::Payload>& in,
                       const tasklib::TaskContext& ctx) {
          if (calls->fetch_add(1) == 0) {
            throw common::StateError("transient fault");
          }
          return inner(in, ctx);
        };
        registry.add(std::move(entry));
      }

      afg::FlowGraph g("flaky-sweep");
      sched::AllocationTable allocation("flaky-sweep");
      for (int i = 0; i < kPairs; ++i) {
        const std::string lib = i < flaky
                                    ? "flaky_source_" + std::to_string(i)
                                    : "synth_source";
        const auto src = g.add_task(lib, "src" + std::to_string(i));
        const auto sink =
            g.add_task("synth_sink", "snk" + std::to_string(i));
        g.add_link(src, sink, 0.1);
        for (const TaskId task : {src, sink}) {
          sched::AllocationEntry row;
          row.task = task;
          row.task_label = g.task(task).label;
          row.library_task = g.task(task).library_task;
          row.hosts = {HostId(task.value() % kHosts)};
          row.site = SiteId(0);
          allocation.add(row);
        }
      }

      rt::FaultTolerance ft;
      ft.reschedule = [](const afg::TaskNode&, const std::vector<HostId>&)
          -> std::optional<sched::AllocationEntry> { return std::nullopt; };

      rt::EngineConfig config;
      config.retry_backoff_s = 0.001;
      rt::ExecutionEngine engine(registry, config);
      try {
        const auto result =
            engine.execute(g, allocation, nullptr, nullptr, &ft);
        makespan_ms += result.makespan_s * 1e3;
        recovered += result.failures_recovered;
        ok = ok && result.failures_recovered == static_cast<std::size_t>(flaky);
      } catch (const std::exception& e) {
        std::cout << flaky << "/" << kPairs << ",error," << e.what() << "\n";
        ok = false;
      }
    }
    makespan_ms /= kReps;
    if (flaky == 0) baseline = makespan_ms;
    std::cout << flaky << "/" << kPairs << "," << std::fixed
              << std::setprecision(2) << makespan_ms << ","
              << std::setprecision(2) << makespan_ms / baseline << ","
              << std::setprecision(1)
              << static_cast<double>(recovered) / kReps << "\n";
  }
  std::cout << "shape check: every run completes and recovered == flaky "
               "sources, in every run (each failure takes its consumer's "
               "receive down too, but that re-run is collateral and "
               "free): "
            << (ok ? "ok" : "FAILED") << "\n"
            << "(not checked) makespan stays flat because one failed round "
               "re-runs every unfinished stage together after one "
               "backoff.\n";
  return ok;
}

}  // namespace

int main() {
  const bool dead_ok = dead_host_sweep();
  const bool transient_ok = transient_error_sweep();
  return dead_ok && transient_ok ? 0 : 1;
}
