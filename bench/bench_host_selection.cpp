// F5 (paper Figure 5): the Host Selection Algorithm.
//
// Quantifies the value of prediction-driven in-site host choice:
//   (a) pick quality vs a load-blind and an oracle pick under varying
//       heterogeneity and load;
//   (b) regret (actual time of pick / actual time of best host).
#include <iomanip>
#include <iostream>

#include "bench/harness.hpp"
#include "runtime/site_stack.hpp"
#include "scheduler/eligibility.hpp"
#include "scheduler/host_selection.hpp"
#include "sim/workloads.hpp"

namespace {

using namespace vdce;

constexpr double kEvalTime = 15.0;

struct Pick {
  common::HostId host;
  double actual_s = 0.0;
};

}  // namespace

int main() {
  bench::banner("F5", "host selection quality (paper Figure 5)");
  bench::header("load_level,picker,mean_actual_s,mean_regret");

  // Low / medium / high background load testbeds.
  for (const auto& [label, min_load, max_load] :
       {std::tuple{"low", 0.0, 0.3}, std::tuple{"medium", 0.3, 1.0},
        std::tuple{"high", 1.0, 3.0}}) {
    netsim::RandomTestbedParams params;
    params.num_sites = 1;
    params.groups_per_site = 2;
    params.hosts_per_group = 6;
    params.min_load = min_load;
    params.max_load = max_load;
    const auto config =
        netsim::make_random_testbed(params, 4242);
    rt::LocalVdce v(config);
    v.warm_up(10.0);

    const auto& repository = *v.sites[0].repository;
    const predict::PerformancePredictor predictor(repository,
                                                  v.sites[0].forecaster.get());

    double predicted_total = 0.0, blind_total = 0.0, oracle_total = 0.0;
    double predicted_regret = 0.0, blind_regret = 0.0;
    int trials = 0;

    for (const auto& task_name :
         {"lu_decomposition", "matrix_inversion", "fft_forward",
          "track_filter", "synth_compute"}) {
      afg::TaskNode node;
      node.id = common::TaskId(0);
      node.library_task = task_name;
      node.props.input_size = 2.0;

      const auto candidates =
          sched::eligible_hosts(repository, node, common::SiteId(0));
      if (candidates.size() < 2) continue;
      ++trials;

      // Actual (ground-truth) execution time of every candidate, each
      // in a fresh universe so the measurement is fair.
      const auto actual = [&](common::HostId h) {
        netsim::VirtualTestbed universe(config);
        return universe.execution_time_at(
            repository.tasks().get(task_name), node.props.input_size, h,
            kEvalTime);
      };

      // Predicted pick (Figure 5).
      afg::FlowGraph g("probe");
      afg::TaskProperties props;
      props.input_size = node.props.input_size;
      (void)g.add_task(task_name, "probe", props);
      const auto selection =
          sched::run_host_selection(g, common::SiteId(0), predictor);
      const auto predicted_pick = selection.begin()->second.hosts.front();

      // Load-blind pick: first candidate by id (what a static list
      // would do).  Oracle: best actual.
      const auto blind_pick = candidates.front();
      double best_actual = 1e300;
      for (const auto h : candidates) {
        best_actual = std::min(best_actual, actual(h));
      }
      const double predicted_actual = actual(predicted_pick);
      const double blind_actual = actual(blind_pick);

      predicted_total += predicted_actual;
      blind_total += blind_actual;
      oracle_total += best_actual;
      predicted_regret += predicted_actual / best_actual;
      blind_regret += blind_actual / best_actual;
    }

    const auto emit = [&](const char* picker, double total, double regret) {
      std::cout << label << "," << picker << "," << std::fixed
                << std::setprecision(3) << total / trials << ","
                << std::setprecision(2) << regret / trials << "\n";
    };
    emit("predicted", predicted_total, predicted_regret);
    emit("load_blind", blind_total, blind_regret);
    emit("oracle", oracle_total, static_cast<double>(trials));
  }

  std::cout << "\nshape check: predicted picks sit between oracle (1.0 "
               "regret) and load-blind picks at every load level, and the "
               "gap to load-blind widens as load grows.\n";
  return 0;
}
