// E10: scheduler scalability.
//
// Wall-clock cost of the Site Scheduler Algorithm (including the host
// selection rounds at every consulted site) as the application and the
// testbed grow, plus the parallel fan-out sweeps: scheduling threads
// (concurrent AFG multicast + parallel Predict scoring) and
// PredictionCache hit rates under monitoring-update churn.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/harness.hpp"
#include "runtime/site_stack.hpp"
#include "common/trace.hpp"
#include "runtime/messages.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"

namespace {

using namespace vdce;

void BM_ScheduleVsGraphSize(benchmark::State& state) {
  netsim::RandomTestbedParams params;
  params.num_sites = 4;
  params.groups_per_site = 2;
  params.hosts_per_group = 4;
  rt::LocalVdce v(netsim::make_random_testbed(params, 11));
  v.warm_up(10.0);

  common::Rng rng(1);
  sim::SyntheticGraphParams gp;
  gp.family = sim::GraphFamily::kLayered;
  gp.size = static_cast<std::size_t>(state.range(0));
  gp.width = 6;
  const auto graph = sim::make_synthetic_graph(gp, rng);
  state.SetLabel(std::to_string(graph.task_count()) + " tasks");

  sched::SiteScheduler scheduler(common::SiteId(0), v.directory,
                                 {.k_nearest = 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(graph));
  }
}
BENCHMARK(BM_ScheduleVsGraphSize)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ScheduleVsHostCount(benchmark::State& state) {
  netsim::RandomTestbedParams params;
  params.num_sites = 2;
  params.groups_per_site = 2;
  params.hosts_per_group = static_cast<std::size_t>(state.range(0));
  rt::LocalVdce v(netsim::make_random_testbed(params, 12));
  v.warm_up(10.0);
  state.SetLabel(std::to_string(v.testbed.host_count()) + " hosts");

  common::Rng rng(2);
  sim::SyntheticGraphParams gp;
  gp.family = sim::GraphFamily::kLayered;
  gp.size = 6;
  gp.width = 5;
  const auto graph = sim::make_synthetic_graph(gp, rng);

  sched::SiteScheduler scheduler(common::SiteId(0), v.directory,
                                 {.k_nearest = 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(graph));
  }
}
BENCHMARK(BM_ScheduleVsHostCount)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Args: (k sites consulted, scheduling threads).  The benchmark loop
// re-schedules the same graph, so after the first iteration the
// PredictionCache is warm: the steady state measures the multicast
// fan-out plus cached Predict lookups.
void BM_ScheduleVsSitesConsulted(benchmark::State& state) {
  netsim::RandomTestbedParams params;
  params.num_sites = 8;
  params.groups_per_site = 2;
  params.hosts_per_group = 3;
  rt::LocalVdce v(netsim::make_random_testbed(params, 13));
  v.warm_up(10.0);

  common::Rng rng(3);
  sim::SyntheticGraphParams gp;
  gp.family = sim::GraphFamily::kLayered;
  gp.size = 6;
  gp.width = 5;
  const auto graph = sim::make_synthetic_graph(gp, rng);

  sched::SiteScheduler scheduler(
      common::SiteId(0), v.directory,
      {.k_nearest = static_cast<std::size_t>(state.range(0)),
       .threads = static_cast<std::size_t>(state.range(1))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(graph));
  }
  state.SetLabel("k=" + std::to_string(state.range(0)) +
                 " threads=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_ScheduleVsSitesConsulted)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({3, 1})
    ->Args({7, 1})
    ->Args({7, 2})
    ->Args({7, 4})
    ->Args({7, 8});

// Args: (hosts per group, scoring threads).
void BM_HostSelectionOnly(benchmark::State& state) {
  netsim::RandomTestbedParams params;
  params.num_sites = 1;
  params.groups_per_site = 2;
  params.hosts_per_group = static_cast<std::size_t>(state.range(0));
  rt::LocalVdce v(netsim::make_random_testbed(params, 14));
  v.warm_up(10.0);

  common::Rng rng(4);
  sim::SyntheticGraphParams gp;
  gp.family = sim::GraphFamily::kLayered;
  gp.size = 4;
  gp.width = 4;
  const auto graph = sim::make_synthetic_graph(gp, rng);

  const auto threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        v.directory.host_selection(common::SiteId(0), graph, threads));
  }
  state.SetLabel(std::to_string(v.testbed.host_count()) + " hosts, " +
                 std::to_string(threads) + " threads");
}
BENCHMARK(BM_HostSelectionOnly)
    ->Args({4, 1})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Args({64, 8});

// PredictionCache hit rate under monitoring churn.  Arg: how many local
// hosts receive a workload update between consecutive schedule() calls
// (every update bumps the epoch, invalidating the whole site's cached
// predictions).  Counters report the end-of-run hit rate.
void BM_ScheduleCacheChurn(benchmark::State& state) {
  netsim::RandomTestbedParams params;
  params.num_sites = 4;
  params.groups_per_site = 2;
  params.hosts_per_group = 4;
  rt::LocalVdce v(netsim::make_random_testbed(params, 15));
  v.warm_up(10.0);

  common::Rng rng(5);
  sim::SyntheticGraphParams gp;
  gp.family = sim::GraphFamily::kLayered;
  gp.size = 6;
  gp.width = 5;
  const auto graph = sim::make_synthetic_graph(gp, rng);

  const auto updates = static_cast<std::size_t>(state.range(0));
  const auto local_hosts =
      v.sites[0].repository->resources().hosts_in_site(common::SiteId(0));

  sched::SiteScheduler scheduler(common::SiteId(0), v.directory,
                                 {.k_nearest = 3, .threads = 4});
  double t = 100.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < updates && i < local_hosts.size(); ++i) {
      rt::WorkloadUpdate update;
      update.host = local_hosts[i].host;
      update.cpu_load = rng.uniform(0.0, 2.0);
      update.available_memory_mb =
          local_hosts[i].static_attrs.total_memory_mb;
      update.when = (t += 1.0);
      v.sites[0].manager->handle_workload(update);
    }
    benchmark::DoNotOptimize(scheduler.schedule(graph));
  }

  predict::PredictionCacheStats totals;
  for (const common::SiteId site : v.directory.sites()) {
    const auto s = v.directory.prediction_cache(site).stats();
    totals.lookups += s.lookups;
    totals.hits += s.hits;
    totals.invalidations += s.invalidations;
  }
  state.counters["hit_rate"] =
      totals.lookups == 0
          ? 0.0
          : static_cast<double>(totals.hits) /
                static_cast<double>(totals.lookups);
  state.counters["invalidations"] = static_cast<double>(totals.invalidations);
  state.SetLabel(std::to_string(updates) + " updates/schedule");
}
BENCHMARK(BM_ScheduleCacheChurn)->Arg(0)->Arg(1)->Arg(8);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): a TraceSession wrapping the
// benchmark run records every schedule()/host_selection round as spans
// when VDCE_TRACE names an output file (E16 measures its overhead).
int main(int argc, char** argv) {
  vdce::common::TraceSession trace_session;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
