// E9: dynamic rescheduling (Section 2.3.1).
//
//   (a) makespan with vs without the Application Controller's
//       threshold-triggered rescheduling under load spikes (D6,
//       threshold sweep);
//   (b) makespan and survival under host failures with rescheduling on.
//
// Exits 1 when a row throws, when no finite threshold beats "off", or
// when the killed-host run survives no failure.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "bench/harness.hpp"
#include "runtime/site_stack.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/dynamic_sim.hpp"
#include "sim/workloads.hpp"

namespace {

using namespace vdce;

constexpr std::uint64_t kSeed = 606;
constexpr double kStart = 12.0;

netsim::TestbedConfig config() {
  netsim::RandomTestbedParams params;
  params.num_sites = 2;
  params.groups_per_site = 2;
  params.hosts_per_group = 4;
  params.min_load = 0.0;
  params.max_load = 0.5;
  return netsim::make_random_testbed(params, kSeed);
}

afg::FlowGraph workload(int trial) {
  common::Rng rng(3000 + trial);
  sim::SyntheticGraphParams params;
  params.family = sim::GraphFamily::kLayered;
  params.size = 5;
  params.width = 4;
  return sim::make_synthetic_graph(params, rng);
}

/// The host carrying the most allocation rows (the one whose overload
/// or failure actually matters).
common::HostId busiest_host(const sched::AllocationTable& allocation) {
  std::map<common::HostId, int> count;
  for (const auto& row : allocation.rows()) {
    for (const auto h : row.hosts) ++count[h];
  }
  common::HostId best = allocation.hosts_involved().front();
  int most = 0;
  for (const auto& [host, n] : count) {
    if (n > most) {
      most = n;
      best = host;
    }
  }
  return best;
}

/// Runs one dynamic simulation in a fresh universe with a load spike on
/// the busiest allocated host.
sim::SimResult run_with_spike(const afg::FlowGraph& graph,
                              double threshold, int trial) {
  rt::LocalVdce v(config());
  v.warm_up(10.0);
  sched::SiteScheduler scheduler(common::SiteId(0), v.directory,
                                 {.k_nearest = 1});
  const auto allocation = scheduler.schedule(graph);
  const auto victim = busiest_host(allocation);
  v.testbed.add_load_spike(victim, {kStart, 400.0, 10.0});
  (void)trial;

  rt::EngineConfig engine_config;
  engine_config.load_threshold = threshold;
  sim::DynamicSimulator simulator(v, v.sites[0].repository->tasks(),
                                  scheduler, engine_config);
  return simulator.run(graph, allocation, kStart);
}

/// E9a; false when a row throws or no finite threshold beats "off".
bool threshold_sweep() {
  bench::banner("E9a", "threshold rescheduling under a load spike (D6)");
  bench::header("threshold,mean_makespan_s,mean_reschedules");

  constexpr int kTrials = 4;
  const double thresholds[] = {1e18, 25.0, 12.0, 5.0, 2.0, 0.3};
  bool ok = true;
  double off = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const double threshold : thresholds) {
    const std::string label =
        threshold > 1e17 ? std::string("off") : std::to_string(threshold);
    double makespan = 0.0;
    double reschedules = 0.0;
    try {
      for (int trial = 0; trial < kTrials; ++trial) {
        const auto graph = workload(trial);
        const auto result = run_with_spike(graph, threshold, trial);
        makespan += result.makespan_s;
        reschedules += static_cast<double>(result.reschedules);
      }
    } catch (const std::exception& e) {
      std::cout << label << ",error," << e.what() << "\n";
      ok = false;
      continue;
    }
    std::cout << label << "," << std::fixed << std::setprecision(3)
              << makespan / kTrials << "," << std::setprecision(1)
              << reschedules / kTrials << "\n";
    if (threshold > 1e17) {
      off = makespan / kTrials;
    } else {
      best = std::min(best, makespan / kTrials);
    }
  }
  ok = ok && best < off;
  std::cout << "shape check: every row completes and the best finite "
               "threshold beats 'off' (a threshold below the spiked load "
               "moves work off the spiked host): "
            << (ok ? "ok" : "FAILED") << "\n";
  return ok;
}

/// E9b; false when a row throws or the killed-host run survives no
/// failure.
bool failure_experiment() {
  bench::banner("E9b", "failure survival with rescheduling");
  bench::header("scenario,makespan_s,reschedules,failures_survived");

  bool ok = true;
  for (const auto& [label, kill] :
       {std::pair{"no_failure", false}, std::pair{"kill_busiest", true}}) {
    rt::LocalVdce v(config());
    v.warm_up(10.0);
    const auto graph = workload(99);
    sched::SiteScheduler scheduler(common::SiteId(0), v.directory,
                                   {.k_nearest = 1});
    const auto allocation = scheduler.schedule(graph);
    if (kill) {
      v.testbed.fail_host(busiest_host(allocation), kStart + 0.5, 1e6);
    }
    sim::DynamicSimulator simulator(v, v.sites[0].repository->tasks(),
                                    scheduler);
    try {
      const auto result = simulator.run(graph, allocation, kStart);
      std::cout << label << "," << std::fixed << std::setprecision(3)
                << result.makespan_s << "," << result.reschedules << ","
                << result.failures_hit << "\n";
      if (kill && result.failures_hit == 0) ok = false;
    } catch (const std::exception& e) {
      std::cout << label << ",error," << e.what() << "\n";
      ok = false;
    }
  }
  std::cout << "shape check: every row completes and kill_busiest "
               "survives at least one failure within the engine's "
               "budget: "
            << (ok ? "ok" : "FAILED") << "\n";
  return ok;
}

}  // namespace

int main() {
  const bool sweep_ok = threshold_sweep();
  const bool failure_ok = failure_experiment();
  return sweep_ok && failure_ok ? 0 : 1;
}
