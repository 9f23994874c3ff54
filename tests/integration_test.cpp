// Integration tests: the full VDCE software development cycle end to
// end — the three phases of Section 1 (development, scheduling,
// execution) driven across module boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "common/error.hpp"
#include "editor/editor.hpp"
#include "netsim/testbed.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/engine.hpp"
#include "runtime/site_stack.hpp"
#include "scheduler/baselines.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/dynamic_sim.hpp"
#include "sim/static_sim.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"
#include "viz/comparative.hpp"
#include "viz/gantt.hpp"

namespace vdce {
namespace {

using common::SiteId;

/// Full two-site VDCE with monitoring, scheduling and runtime wired up.
class VdceIntegration : public ::testing::Test {
 protected:
  void SetUp() override { vdce_.warm_up(10.0); }

  rt::LocalVdce vdce_{netsim::make_campus_testbed(2026)};
};

TEST_F(VdceIntegration, FullDevelopmentCycleWithEditor) {
  // 1. Authenticate.
  EXPECT_NO_THROW((void)vdce_.sites[0].manager->login("hpdc", "nynet"));

  // 2. Develop the Figure 3 app with the Editor.
  const auto& registry = tasklib::builtin_registry();
  editor::ApplicationEditor ed(registry, "lin_solver");
  const auto a = ed.add_task("matrix_generate", "A");
  const auto b = ed.add_task("vector_generate", "b");
  const auto solve = ed.add_task("linear_solve", "solve");
  const auto res = ed.add_task("residual_check", "res");
  ed.set_mode(editor::EditorMode::kLink);
  ed.connect(a, solve);
  ed.connect(b, solve);
  ed.connect(a, res);
  ed.connect(solve, res);
  ed.connect(b, res);
  ed.set_mode(editor::EditorMode::kRun);
  const auto graph = ed.submit();

  // 3. Schedule across sites.
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);
  EXPECT_EQ(allocation.size(), 4u);

  // 4. Execute with the runtime and check the numerics.
  rt::ExecutionEngine engine(registry);
  const auto result =
      engine.execute(graph, allocation, vdce_.sites[0].manager.get());
  EXPECT_LT(result.outputs.at(res).as_scalar(), 1e-9);
}

TEST_F(VdceIntegration, StoredAfgSurvivesTheWholePipeline) {
  const auto path = "/tmp/vdce_integration.afg";
  {
    const auto graph = sim::make_fourier_graph();
    afg::save_file(graph, path);
  }
  const auto graph = afg::load_file(path);
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);
  rt::ExecutionEngine engine(tasklib::builtin_registry());
  const auto result = engine.execute(graph, allocation);
  const auto sink = graph.find_by_label("collect");
  EXPECT_GT(result.outputs.at(*sink).as_scalar(), 0.0);
}

TEST_F(VdceIntegration, MonitoringImprovesScheduling) {
  // Make one fast host very busy in truth; before monitoring catches
  // up the scheduler may pick it, afterwards it should avoid it.
  const auto hosts = vdce_.testbed.hosts_in_site(SiteId(0));
  const auto victim = hosts.front();
  vdce_.testbed.add_load_spike(victim, {12.0, 1000.0, 30.0});

  vdce_.warm_up(40.0);  // monitors see the spike

  const auto graph = sim::make_c3i_graph();
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);
  for (const auto& row : allocation.rows()) {
    for (const auto h : row.hosts) {
      EXPECT_NE(h, victim) << "scheduler placed " << row.task_label
                           << " on the overloaded host";
    }
  }
}

TEST_F(VdceIntegration, SchedulerAvoidsDownHosts) {
  const auto hosts = vdce_.testbed.hosts_in_site(SiteId(0));
  const auto dead = hosts.front();
  vdce_.testbed.fail_host(dead, 12.0, 1e6);
  vdce_.warm_up(20.0);  // echo rounds mark it down

  const auto graph = sim::make_linear_solver_graph();
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);
  for (const auto& row : allocation.rows()) {
    for (const auto h : row.hosts) EXPECT_NE(h, dead);
  }
}

TEST_F(VdceIntegration, VdceBeatsRandomPlacementInSimulation) {
  // The headline behavioural claim: prediction-driven scheduling beats
  // load-blind random placement on a heterogeneous loaded testbed.
  // Compare in identical parallel universes, several workloads.
  common::Rng rng(404);
  int vdce_wins = 0;
  constexpr int kTrials = 5;
  for (int trial = 0; trial < kTrials; ++trial) {
    sim::SyntheticGraphParams params;
    params.family = sim::GraphFamily::kLayered;
    params.size = 4;
    params.width = 4;
    const auto graph = sim::make_synthetic_graph(params, rng);

    sched::SiteScheduler vdce_sched(SiteId(0), vdce_.directory);
    sched::RandomScheduler random_sched(*vdce_.sites[0].repository,
                                        900 + trial);
    const auto alloc_vdce = vdce_sched.schedule(graph);
    const auto alloc_random = random_sched.schedule(graph);

    netsim::VirtualTestbed universe_a(netsim::make_campus_testbed(2026));
    netsim::VirtualTestbed universe_b(netsim::make_campus_testbed(2026));
    sim::StaticSimulator sim_a(universe_a, vdce_.sites[0].repository->tasks());
    sim::StaticSimulator sim_b(universe_b, vdce_.sites[0].repository->tasks());
    const auto res_vdce = sim_a.run(graph, alloc_vdce, 10.0);
    const auto res_random = sim_b.run(graph, alloc_random, 10.0);
    if (res_vdce.makespan_s <= res_random.makespan_s) ++vdce_wins;
  }
  EXPECT_GE(vdce_wins, (kTrials + 1) / 2)
      << "VDCE scheduling lost to random placement too often";
}

TEST_F(VdceIntegration, DynamicSimulationEndToEndWithChaos) {
  common::Rng rng(7);
  sim::SyntheticGraphParams params;
  params.family = sim::GraphFamily::kLayered;
  params.size = 4;
  params.width = 4;
  const auto graph = sim::make_synthetic_graph(params, rng);

  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);

  // Chaos: one failure, one spike.
  const auto involved = allocation.hosts_involved();
  vdce_.testbed.fail_host(involved.front(), 12.0, 500.0);
  if (involved.size() > 1) {
    vdce_.testbed.add_load_spike(involved[1], {12.0, 200.0, 20.0});
  }

  rt::EngineConfig config;
  config.load_threshold = 8.0;
  sim::DynamicSimulator simulator(vdce_, vdce_.sites[0].repository->tasks(),
                                  scheduler, config);
  const auto result = simulator.run(graph, allocation, 11.0);
  EXPECT_EQ(result.records.size(), graph.task_count());
  EXPECT_GT(result.reschedules, 0u);

  // The Gantt renders sensibly.
  const auto gantt = viz::render_gantt(result);
  EXPECT_NE(gantt.find("makespan"), std::string::npos);
}

TEST_F(VdceIntegration, ComparativeVisualizationAcrossConfigs) {
  // The paper's comparative visualization: the same app on different
  // hardware combinations.
  const auto graph = sim::make_linear_solver_graph();
  viz::ComparativeViz comparison;

  for (const auto& [label, arch] :
       std::vector<std::pair<std::string, std::optional<repo::ArchType>>>{
           {"any", std::nullopt},
           {"sparc-only", repo::ArchType::kSparc},
           {"intel-only", repo::ArchType::kIntel}}) {
    auto constrained = graph;
    if (arch) {
      for (const auto& node : graph.tasks()) {
        auto props = node.props;
        props.preferred_arch = arch;
        constrained.task(node.id).props = props;
      }
    }
    sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
    sched::AllocationTable allocation("x");
    try {
      allocation = scheduler.schedule(constrained);
    } catch (const sched::SchedulingError&) {
      continue;  // some constraint sets are infeasible; skip
    }
    netsim::VirtualTestbed universe(netsim::make_campus_testbed(2026));
    sim::StaticSimulator sims(universe, vdce_.sites[0].repository->tasks());
    comparison.add_run(label, sims.run(constrained, allocation, 10.0));
  }
  EXPECT_GE(comparison.runs(), 2u);
  EXPECT_FALSE(comparison.best().empty());
}

TEST_F(VdceIntegration, RepositoryPersistsAcrossRestart) {
  const auto dir = std::filesystem::temp_directory_path() / "vdce_site0";
  std::filesystem::remove_all(dir);

  // Run something so there is measured history, then save.
  const auto graph = sim::make_c3i_graph(0.5);
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);
  rt::ExecutionEngine engine(tasklib::builtin_registry());
  (void)engine.execute(graph, allocation, vdce_.sites[0].manager.get());
  vdce_.sites[0].repository->save(dir);

  // "Restart": a fresh repository loads the same state.
  repo::SiteRepository restarted(SiteId(0));
  restarted.load(dir);
  EXPECT_EQ(restarted.resources().size(),
            vdce_.sites[0].repository->resources().size());
  EXPECT_FALSE(
      restarted.tasks().get("track_filter").measured_history.empty());
  EXPECT_NO_THROW((void)restarted.users().authenticate("hpdc", "nynet"));
  std::filesystem::remove_all(dir);
}

TEST_F(VdceIntegration, InterSiteCoordinationCounted) {
  const auto graph = sim::make_c3i_graph();
  sched::SiteSchedulerConfig config;
  config.k_nearest = 1;
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory, config);
  (void)scheduler.schedule(graph);
  // Both the local site and one remote answered a multicast, each from
  // its own prediction cache; no other site was asked.
  const std::vector<SiteId> consulted = {SiteId(0), SiteId(1)};
  EXPECT_EQ(scheduler.consulted_sites(), consulted);
  for (const SiteId site : vdce_.directory.sites()) {
    const bool asked = std::ranges::count(consulted, site) > 0;
    const auto& cache = vdce_.directory.prediction_cache(site);
    EXPECT_EQ(cache.stats().lookups > 0, asked) << "site " << site.value();
  }
}

}  // namespace
}  // namespace vdce
