// Tests for the simulators (static + dynamic) and workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "netsim/testbed.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/engine.hpp"
#include "runtime/site_stack.hpp"
#include "scheduler/site_scheduler.hpp"
#include "scheduler/directory.hpp"
#include "sim/dynamic_sim.hpp"
#include "sim/static_sim.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce::sim {
namespace {

using common::HostId;
using common::SiteId;
using common::TaskId;

// ----------------------------------------------------------- workloads

class FamilySweep : public ::testing::TestWithParam<GraphFamily> {};

TEST_P(FamilySweep, ProducesValidGraphs) {
  common::Rng rng(1);
  for (std::size_t size : {2u, 4u, 8u}) {
    SyntheticGraphParams params;
    params.family = GetParam();
    params.size = size;
    params.width = 4;
    const auto g = make_synthetic_graph(params, rng);
    EXPECT_NO_THROW(g.validate());
    EXPECT_GE(g.task_count(), 2u);
    // Arity constraints of the library hold everywhere.
    for (const auto& node : g.tasks()) {
      const auto& entry = tasklib::builtin_registry().get(node.library_task);
      const auto indegree =
          static_cast<unsigned>(g.parents(node.id).size());
      EXPECT_GE(indegree, entry.min_inputs) << node.label;
      EXPECT_LE(indegree, entry.max_inputs) << node.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FamilySweep,
                         ::testing::Values(GraphFamily::kChain,
                                           GraphFamily::kForkJoin,
                                           GraphFamily::kLayered,
                                           GraphFamily::kInTree,
                                           GraphFamily::kIndependent));

TEST(Workloads, DeterministicForRngState) {
  common::Rng a(9), b(9);
  SyntheticGraphParams params;
  const auto g1 = make_synthetic_graph(params, a);
  const auto g2 = make_synthetic_graph(params, b);
  EXPECT_EQ(g1.task_count(), g2.task_count());
  EXPECT_EQ(g1.link_count(), g2.link_count());
  for (const auto& node : g1.tasks()) {
    EXPECT_EQ(g2.task(node.id).props, node.props);
  }
}

TEST(Workloads, ConcreteGraphsValid) {
  EXPECT_NO_THROW(make_linear_solver_graph().validate());
  EXPECT_NO_THROW(make_c3i_graph().validate());
  EXPECT_NO_THROW(make_fourier_graph().validate());
  EXPECT_EQ(make_linear_solver_graph().task_count(), 11u);
  EXPECT_EQ(make_c3i_graph().task_count(), 5u);
}

// ------------------------------------------------------------ static sim

class StaticSimEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    testbed_ = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(21));
    repository_ = std::make_unique<repo::SiteRepository>(SiteId(0));
    tasklib::builtin_registry().install_defaults(repository_->tasks());
    testbed_->populate_repository(*repository_, SiteId(0));
    directory_.add_site(SiteId(0), repository_.get());
  }

  sched::AllocationTable schedule(const afg::FlowGraph& graph) {
    sched::SiteScheduler scheduler(SiteId(0), directory_);
    return scheduler.schedule(graph);
  }

  std::unique_ptr<netsim::VirtualTestbed> testbed_;
  std::unique_ptr<repo::SiteRepository> repository_;
  sched::RepositoryDirectory directory_;
};

TEST_F(StaticSimEnv, RecordsEveryTask) {
  const auto graph = make_linear_solver_graph();
  const auto allocation = schedule(graph);
  StaticSimulator sim(*testbed_, repository_->tasks());
  const auto result = sim.run(graph, allocation);
  EXPECT_EQ(result.records.size(), graph.task_count());
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_EQ(result.reschedules, 0u);
}

TEST_F(StaticSimEnv, PrecedenceRespected) {
  const auto graph = make_linear_solver_graph();
  const auto allocation = schedule(graph);
  StaticSimulator sim(*testbed_, repository_->tasks());
  const auto result = sim.run(graph, allocation);
  for (const auto& link : graph.links()) {
    EXPECT_GE(result.record(link.to).start + 1e-9,
              result.record(link.from).finish);
  }
}

TEST_F(StaticSimEnv, HostSerialisationRespected) {
  const auto graph = make_linear_solver_graph();
  const auto allocation = schedule(graph);
  StaticSimulator sim(*testbed_, repository_->tasks());
  const auto result = sim.run(graph, allocation);
  // No two tasks on the same host overlap.
  for (const auto& a : result.records) {
    for (const auto& b : result.records) {
      if (a.task == b.task || a.host != b.host) continue;
      const bool disjoint =
          a.finish <= b.start + 1e-9 || b.finish <= a.start + 1e-9;
      EXPECT_TRUE(disjoint) << a.label << " overlaps " << b.label;
    }
  }
}

TEST_F(StaticSimEnv, TransferDelaysChildStart) {
  // Two-node chain with a huge transfer: the child's data_ready must
  // reflect the WAN/LAN cost when hosts differ.
  afg::FlowGraph g("xfer");
  const auto a = g.add_task("synth_source", "a");
  const auto b = g.add_task("synth_sink", "b");
  g.add_link(a, b, 500.0);  // 500 MB

  // Manual allocation on two different hosts.
  const auto hosts = testbed_->all_hosts();
  sched::AllocationTable table("xfer");
  sched::AllocationEntry ea;
  ea.task = a;
  ea.task_label = "a";
  ea.library_task = "synth_source";
  ea.hosts = {hosts[0]};
  ea.site = testbed_->site_of(hosts[0]);
  table.add(ea);
  sched::AllocationEntry eb = ea;
  eb.task = b;
  eb.task_label = "b";
  eb.library_task = "synth_sink";
  eb.hosts = {hosts[hosts.size() - 1]};
  eb.site = testbed_->site_of(hosts[hosts.size() - 1]);
  table.add(eb);

  StaticSimulator sim(*testbed_, repository_->tasks());
  const auto result = sim.run(g, table);
  const double expected_transfer =
      testbed_->transfer_time(hosts[0], hosts[hosts.size() - 1], 500.0);
  EXPECT_NEAR(result.record(b).data_ready,
              result.record(a).finish + expected_transfer, 1e-9);
}

TEST_F(StaticSimEnv, MakespanMatchesLatestFinish) {
  const auto graph = make_c3i_graph();
  const auto allocation = schedule(graph);
  StaticSimulator sim(*testbed_, repository_->tasks());
  const auto result = sim.run(graph, allocation, /*start_at=*/5.0);
  double latest = 0.0;
  for (const auto& r : result.records) latest = std::max(latest, r.finish);
  EXPECT_DOUBLE_EQ(result.makespan_s, latest - 5.0);
}

TEST_F(StaticSimEnv, DeterministicAcrossIdenticalUniverses) {
  const auto graph = make_linear_solver_graph();
  const auto allocation = schedule(graph);
  netsim::VirtualTestbed other(netsim::make_campus_testbed(21));
  StaticSimulator sim_a(*testbed_, repository_->tasks());
  StaticSimulator sim_b(other, repository_->tasks());
  const auto ra = sim_a.run(graph, allocation);
  const auto rb = sim_b.run(graph, allocation);
  EXPECT_DOUBLE_EQ(ra.makespan_s, rb.makespan_s);
}

TEST_F(StaticSimEnv, MissingRecordThrows) {
  const auto graph = make_c3i_graph();
  const auto allocation = schedule(graph);
  StaticSimulator sim(*testbed_, repository_->tasks());
  const auto result = sim.run(graph, allocation);
  EXPECT_THROW((void)result.record(TaskId(999)), common::NotFoundError);
}

TEST_F(StaticSimEnv, MultiAppContention) {
  // Two applications submitted together share the machines: the joint
  // replay must respect cross-application host serialisation, and each
  // app's makespan must be at least its solo makespan.
  const auto g1 = make_linear_solver_graph();
  const auto g2 = make_c3i_graph(2.0);
  const auto a1 = schedule(g1);
  sched::SiteScheduler scheduler2(SiteId(0), directory_);
  const auto a2 = scheduler2.schedule(g2);

  netsim::VirtualTestbed solo1(netsim::make_campus_testbed(21));
  netsim::VirtualTestbed solo2(netsim::make_campus_testbed(21));
  StaticSimulator sim_solo1(solo1, repository_->tasks());
  StaticSimulator sim_solo2(solo2, repository_->tasks());
  const auto r_solo1 = sim_solo1.run(g1, a1, 5.0);
  const auto r_solo2 = sim_solo2.run(g2, a2, 5.0);

  netsim::VirtualTestbed shared(netsim::make_campus_testbed(21));
  StaticSimulator sim_shared(shared, repository_->tasks());
  const auto joint = sim_shared.run_many(
      {SimJob{&g1, &a1, 5.0}, SimJob{&g2, &a2, 5.0}});
  ASSERT_EQ(joint.size(), 2u);
  EXPECT_EQ(joint[0].records.size(), g1.task_count());
  EXPECT_EQ(joint[1].records.size(), g2.task_count());

  // Contention can only slow things down.
  EXPECT_GE(joint[0].makespan_s + 1e-9, r_solo1.makespan_s);
  EXPECT_GE(joint[1].makespan_s + 1e-9, r_solo2.makespan_s);
  // At least one app actually waited (they overlap on the best hosts).
  EXPECT_GT(joint[0].makespan_s + joint[1].makespan_s,
            r_solo1.makespan_s + r_solo2.makespan_s);

  // No two tasks of *any* application overlap on one host.
  std::vector<SimTaskRecord> all;
  all.insert(all.end(), joint[0].records.begin(), joint[0].records.end());
  all.insert(all.end(), joint[1].records.begin(), joint[1].records.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      if (all[i].host != all[j].host) continue;
      EXPECT_TRUE(all[i].finish <= all[j].start + 1e-9 ||
                  all[j].finish <= all[i].start + 1e-9);
    }
  }
}

TEST_F(StaticSimEnv, MultiAppSingleJobMatchesRun) {
  const auto graph = make_c3i_graph();
  const auto allocation = schedule(graph);
  netsim::VirtualTestbed universe_a(netsim::make_campus_testbed(21));
  netsim::VirtualTestbed universe_b(netsim::make_campus_testbed(21));
  StaticSimulator sim_a(universe_a, repository_->tasks());
  StaticSimulator sim_b(universe_b, repository_->tasks());
  const auto via_run = sim_a.run(graph, allocation, 7.0);
  const auto via_many =
      sim_b.run_many({SimJob{&graph, &allocation, 7.0}}).front();
  EXPECT_DOUBLE_EQ(via_run.makespan_s, via_many.makespan_s);
}

TEST_F(StaticSimEnv, MultiAppStaggeredSubmission) {
  const auto g1 = make_c3i_graph();
  const auto g2 = make_c3i_graph();
  const auto a1 = schedule(g1);
  sched::SiteScheduler scheduler2(SiteId(0), directory_);
  const auto a2 = scheduler2.schedule(g2);
  netsim::VirtualTestbed shared(netsim::make_campus_testbed(21));
  StaticSimulator sim(shared, repository_->tasks());
  const auto joint = sim.run_many(
      {SimJob{&g1, &a1, 5.0}, SimJob{&g2, &a2, 50.0}});
  // The second app starts no earlier than its submission.
  for (const auto& r : joint[1].records) {
    EXPECT_GE(r.start + 1e-9, 50.0);
  }
}

// ----------------------------------------------------------- dynamic sim

class DynamicSimEnv : public ::testing::Test {
 protected:
  // Warm the monitoring plane.
  void SetUp() override { vdce_.warm_up(10.0); }

  sched::AllocationTable schedule(const afg::FlowGraph& graph) {
    return scheduler_.schedule(graph);
  }

  rt::LocalVdce vdce_{netsim::make_campus_testbed(31)};
  sched::SiteScheduler scheduler_{SiteId(0), vdce_.directory};
};

TEST_F(DynamicSimEnv, QuietRunMatchesStaticBehaviour) {
  const auto graph = make_linear_solver_graph();
  const auto allocation = schedule(graph);
  DynamicSimulator sim(vdce_, vdce_.sites[0].repository->tasks(), scheduler_);
  const auto result = sim.run(graph, allocation, /*start_at=*/10.0);
  EXPECT_EQ(result.records.size(), graph.task_count());
  EXPECT_EQ(result.reschedules, 0u);
  EXPECT_EQ(result.failures_hit, 0u);
  for (const auto& r : result.records) EXPECT_EQ(r.attempts, 1);
}

TEST_F(DynamicSimEnv, SurvivesHostFailure) {
  const auto graph = make_linear_solver_graph(2.0);
  const auto allocation = schedule(graph);
  // Kill the busiest host for a long window right after start.
  const auto victim = allocation.hosts_involved().front();
  vdce_.testbed.fail_host(victim, 11.0, 1000.0);

  DynamicSimulator sim(vdce_, vdce_.sites[0].repository->tasks(), scheduler_);
  const auto result = sim.run(graph, allocation, /*start_at=*/10.0);
  EXPECT_EQ(result.records.size(), graph.task_count());
  EXPECT_GT(result.reschedules, 0u);
  // No completed task ran on the dead host after the failure.
  for (const auto& r : result.records) {
    if (r.start >= 11.0) {
      EXPECT_NE(r.host, victim);
    }
  }
}

TEST_F(DynamicSimEnv, ThresholdGuardAvoidsLoadSpikes) {
  const auto graph = make_linear_solver_graph(2.0);
  const auto allocation = schedule(graph);
  const auto victim = allocation.hosts_involved().front();
  vdce_.testbed.add_load_spike(victim, {10.0, 500.0, 50.0});

  rt::EngineConfig config;
  config.load_threshold = 10.0;
  DynamicSimulator sim(vdce_, vdce_.sites[0].repository->tasks(), scheduler_,
                       config);
  const auto result = sim.run(graph, allocation, /*start_at=*/10.0);
  EXPECT_GT(result.reschedules, 0u);
  // Every task eventually completed somewhere else.
  for (const auto& r : result.records) {
    EXPECT_NE(r.host, victim);
  }
}

TEST_F(DynamicSimEnv, ThresholdGuardDisabledByDefault) {
  const auto graph = make_c3i_graph();
  const auto allocation = schedule(graph);
  const auto victim = allocation.hosts_involved().front();
  vdce_.testbed.add_load_spike(victim, {10.0, 500.0, 50.0});
  DynamicSimulator sim(vdce_, vdce_.sites[0].repository->tasks(), scheduler_);
  const auto result = sim.run(graph, allocation, 10.0);
  EXPECT_EQ(result.reschedules, 0u);  // guard off: grind through the spike
}

TEST_F(DynamicSimEnv, ImpossibleRecoveryThrows) {
  const auto graph = make_c3i_graph();
  const auto allocation = schedule(graph);
  // Kill every host everywhere.
  for (const auto h : vdce_.testbed.all_hosts()) {
    vdce_.testbed.fail_host(h, 10.5, 1e6);
  }
  DynamicSimulator sim(vdce_, vdce_.sites[0].repository->tasks(), scheduler_);
  EXPECT_THROW((void)sim.run(graph, allocation, 10.0),
               sched::SchedulingError);
}

TEST_F(DynamicSimEnv, AttemptBudgetIsTheEngines) {
  // A lone task whose host and whose first replacement are both dead
  // needs a third placement; with the engine's budget at 2 the run
  // fails naming it.
  afg::FlowGraph graph("lone");
  const TaskId task = graph.add_task("synth_source", "solo");
  const auto allocation = schedule(graph);
  const HostId first = allocation.entry(task).primary_host();
  const auto second = scheduler_.reschedule(graph, allocation, task, {first});
  ASSERT_TRUE(second.has_value());
  vdce_.testbed.fail_host(first, 10.0, 1e6);
  vdce_.testbed.fail_host(second->primary_host(), 10.0, 1e6);

  rt::EngineConfig config;
  config.max_attempts = 2;
  DynamicSimulator sim(vdce_, vdce_.sites[0].repository->tasks(), scheduler_,
                       config);
  try {
    (void)sim.run(graph, allocation, 10.0);
    FAIL() << "a task with no attempt left must fail the run";
  } catch (const sched::SchedulingError& e) {
    EXPECT_NE(std::string(e.what()).find("task solo exceeded 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(DynamicSimReplacement, ReplacementMatchesTheLiveEngine) {
  // The simulator re-places as the live engine does.  On each seeded
  // 6-site testbed an entry task's host is dead from the start.  The
  // live engine runs on an identical, identically warmed VDCE with the
  // submission service's default rescheduler.  Every task's attempts
  // must match: both charge through rt::decide_recovery.  Hosts are
  // compared for entry tasks only: the simulator re-places a child
  // after its parents have moved, while the live gang's guards refuse
  // concurrently, before any parent moved, so an inner task's
  // replacement can differ.
  constexpr double kStart = 10.0;
  netsim::RandomTestbedParams params;
  params.num_sites = 6;
  sched::SiteSchedulerConfig config;
  config.k_nearest = 3;
  std::size_t moved = 0;
  std::size_t inner_charged = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    SyntheticGraphParams shape;
    shape.family = GraphFamily::kLayered;
    shape.size = 4;
    shape.width = 4;
    const auto graph = make_synthetic_graph(shape, rng);

    rt::LocalVdce simulated(netsim::make_random_testbed(params, seed));
    simulated.warm_up(kStart);
    sched::SiteScheduler scheduler(SiteId(0), simulated.directory, config);
    const auto allocation = scheduler.schedule(graph);
    const TaskId entry_task = graph.tasks().front().id;
    ASSERT_TRUE(graph.parents(entry_task).empty());
    const HostId victim = allocation.entry(entry_task).primary_host();
    simulated.testbed.fail_host(victim, kStart, 1e6);
    DynamicSimulator sim(simulated, simulated.sites[0].repository->tasks(),
                         scheduler);
    const auto simulation = sim.run(graph, allocation, kStart);

    rt::LocalVdce live(netsim::make_random_testbed(params, seed));
    live.warm_up(kStart);
    sched::AllocationTable live_table =
        sched::SiteScheduler(SiteId(0), live.directory, config)
            .schedule(graph);
    for (const auto& row : allocation.rows()) {
      ASSERT_EQ(live_table.entry(row.task).hosts, row.hosts);
    }
    // The service's default rescheduler, moving the row it returns.
    std::mutex mu;
    rt::FaultTolerance ft;
    ft.host_alive = [victim](HostId host) { return host != victim; };
    ft.reschedule = [&](const afg::TaskNode& node,
                        const std::vector<HostId>& excluded) {
      std::lock_guard lk(mu);
      auto entry = sched::SiteScheduler(SiteId(0), live.directory, config)
                       .reschedule(graph, live_table, node.id, excluded);
      if (entry) live_table.replace(*entry);
      return entry;
    };
    ft.sleep = [](double) {};
    rt::ExecutionEngine engine(tasklib::builtin_registry());
    const auto run = engine.execute(graph, allocation, nullptr, nullptr, &ft);

    ASSERT_EQ(run.records.size(), simulation.records.size());
    for (const auto& record : simulation.records) {
      const auto live_record =
          std::find_if(run.records.begin(), run.records.end(),
                       [&](const auto& r) { return r.task == record.task; });
      ASSERT_NE(live_record, run.records.end());
      EXPECT_EQ(live_record->attempts, record.attempts) << record.label;
      if (!graph.parents(record.task).empty() && record.attempts > 1) {
        ++inner_charged;
      }
      if (!graph.parents(record.task).empty() ||
          record.host == allocation.entry(record.task).primary_host()) {
        continue;
      }
      ++moved;
      EXPECT_EQ(live_record->host.value(), record.host.value())
          << record.label;
      EXPECT_EQ(live_table.entry(record.task).site.value(),
                record.site.value())
          << record.label;
    }
  }
  EXPECT_GE(moved, 8u);
  EXPECT_GE(inner_charged, 8u);
}

TEST_F(DynamicSimEnv, RecordsMeasuredTimesInTaskDb) {
  const auto graph = make_c3i_graph();
  const auto allocation = schedule(graph);
  DynamicSimulator sim(vdce_, vdce_.sites[0].repository->tasks(), scheduler_);
  (void)sim.run(graph, allocation, 10.0);
  bool any_history = false;
  for (const auto& site : vdce_.sites) {
    if (!site.repository->tasks()
             .get("track_filter")
             .measured_history.empty()) {
      any_history = true;
    }
  }
  EXPECT_TRUE(any_history);
}

}  // namespace
}  // namespace vdce::sim
