// Tests for the VDCE Runtime System: Monitor daemons, Group Managers
// (CI filtering, failure detection), Site Managers, the Control Manager
// wiring, the Site-Manager-backed scheduling directory, and the
// real-threaded execution engine.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "netsim/testbed.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/engine.hpp"
#include "runtime/site_stack.hpp"
#include "runtime/sm_directory.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {
namespace {

using common::HostId;
using common::SiteId;

/// One fully wired site over the campus testbed.
class RuntimeEnv : public ::testing::Test {
 protected:
  LocalVdce vdce_{netsim::make_campus_testbed(13)};
};

// -------------------------------------------------------------- monitor

TEST(MonitorTest, FiresOnPeriod) {
  netsim::VirtualTestbed testbed(netsim::make_campus_testbed(1));
  Monitor monitor(testbed, testbed.all_hosts().front(), 2.0);
  EXPECT_TRUE(monitor.tick(0.0).has_value());   // due immediately
  EXPECT_FALSE(monitor.tick(1.0).has_value());  // not due
  EXPECT_TRUE(monitor.tick(2.0).has_value());
  EXPECT_EQ(monitor.measurements_taken(), 2u);
}

TEST(MonitorTest, GapYieldsOneReport) {
  netsim::VirtualTestbed testbed(netsim::make_campus_testbed(1));
  Monitor monitor(testbed, testbed.all_hosts().front(), 1.0);
  (void)monitor.tick(0.0);
  EXPECT_TRUE(monitor.tick(50.0).has_value());
  EXPECT_EQ(monitor.measurements_taken(), 2u);  // no burst of 50
}

TEST(MonitorTest, DeadHostProducesNothing) {
  netsim::VirtualTestbed testbed(netsim::make_campus_testbed(1));
  const auto host = testbed.all_hosts().front();
  testbed.fail_host(host, 5.0, 10.0);
  Monitor monitor(testbed, host, 1.0);
  EXPECT_TRUE(monitor.tick(1.0).has_value());
  EXPECT_FALSE(monitor.tick(6.0).has_value());
  EXPECT_TRUE(monitor.tick(20.0).has_value());
}

TEST(MonitorTest, RejectsBadPeriod) {
  netsim::VirtualTestbed testbed(netsim::make_campus_testbed(1));
  EXPECT_THROW(Monitor(testbed, testbed.all_hosts().front(), 0.0),
               common::StateError);
}

TEST(MonitorTest, ExactDueBoundaryFires) {
  // Boundary semantics: the very first tick (next_due_ == 0.0) fires
  // immediately, and a tick landing *exactly* on the due time fires --
  // the due check is inclusive, not strict.
  netsim::VirtualTestbed testbed(netsim::make_campus_testbed(1));
  Monitor monitor(testbed, testbed.all_hosts().front(), 1.5);
  EXPECT_TRUE(monitor.tick(0.0).has_value());   // t == next_due_ == 0.0
  EXPECT_FALSE(monitor.tick(1.4).has_value());
  EXPECT_TRUE(monitor.tick(1.5).has_value());   // exactly due
  EXPECT_FALSE(monitor.tick(2.9).has_value());
  EXPECT_TRUE(monitor.tick(3.0).has_value());
  EXPECT_EQ(monitor.measurements_taken(), 3u);
}

TEST(MonitorTest, DieAndReviveInsideFaultWindowResumesCleanly) {
  // A host that dies and revives between reports: every tick inside the
  // fault window yields nothing (but still advances the schedule), and
  // the first tick after revival yields exactly one report -- no burst
  // of catch-up reports for the missed periods.
  netsim::VirtualTestbed testbed(netsim::make_campus_testbed(1));
  const auto host = testbed.all_hosts().front();
  testbed.fail_host(host, /*start=*/2.5, /*length=*/3.0);  // dead [2.5, 5.5)
  Monitor monitor(testbed, host, 1.0);
  EXPECT_TRUE(monitor.tick(1.0).has_value());
  EXPECT_TRUE(monitor.tick(2.0).has_value());
  EXPECT_FALSE(monitor.tick(3.0).has_value());  // dead
  EXPECT_FALSE(monitor.tick(4.0).has_value());  // dead
  EXPECT_FALSE(monitor.tick(5.0).has_value());  // dead
  EXPECT_TRUE(monitor.tick(6.0).has_value());   // revived: one report
  EXPECT_FALSE(monitor.tick(6.5).has_value());  // not a catch-up burst
  EXPECT_EQ(monitor.measurements_taken(), 3u);
}

// -------------------------------------------------------- group manager

TEST(GroupManagerTest, CiFilterReducesForwarding) {
  netsim::VirtualTestbed testbed_a(netsim::make_campus_testbed(3));
  netsim::VirtualTestbed testbed_b(netsim::make_campus_testbed(3));

  GroupManagerConfig filtered;
  filtered.ci_filter = true;
  GroupManagerConfig unfiltered;
  unfiltered.ci_filter = false;

  GroupManager gm_filtered(testbed_a, common::GroupId(0), filtered);
  GroupManager gm_unfiltered(testbed_b, common::GroupId(0), unfiltered);

  for (double t = 1.0; t <= 200.0; t += 1.0) {
    (void)gm_filtered.tick(t);
    (void)gm_unfiltered.tick(t);
  }
  EXPECT_EQ(gm_filtered.stats().reports_received,
            gm_unfiltered.stats().reports_received);
  EXPECT_LT(gm_filtered.stats().updates_forwarded,
            gm_unfiltered.stats().updates_forwarded);
  // The unfiltered manager forwards everything.
  EXPECT_EQ(gm_unfiltered.stats().updates_forwarded,
            gm_unfiltered.stats().reports_received);
}

TEST(GroupManagerTest, DetectsFailureAndRecovery) {
  netsim::VirtualTestbed testbed(netsim::make_campus_testbed(5));
  const auto group = common::GroupId(0);
  const auto host = testbed.hosts_in_group(group).front();
  testbed.fail_host(host, 10.0, 10.0);

  GroupManagerConfig config;
  config.echo_period_s = 2.0;
  GroupManager gm(testbed, group, config);

  bool saw_down = false;
  bool saw_up = false;
  for (double t = 1.0; t <= 40.0; t += 1.0) {
    const auto out = gm.tick(t);
    for (const auto& change : out.liveness_changes) {
      if (change.host == host && !change.alive) saw_down = true;
      if (change.host == host && change.alive) saw_up = true;
    }
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up);
  EXPECT_EQ(gm.stats().failures_detected, 1u);
  EXPECT_EQ(gm.stats().recoveries_detected, 1u);
  // After recovery the host is believed alive again.
  const auto alive = gm.hosts_believed_alive();
  EXPECT_NE(std::find(alive.begin(), alive.end(), host), alive.end());
}

TEST(GroupManagerTest, EchoRoundsMeasureNetwork) {
  netsim::VirtualTestbed testbed(netsim::make_campus_testbed(5));
  GroupManager gm(testbed, common::GroupId(0));
  bool saw_network = false;
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    const auto out = gm.tick(t);
    if (!out.network_measurements.empty()) {
      saw_network = true;
      EXPECT_GT(out.network_measurements.front().transfer_mb_per_s, 0.0);
    }
  }
  EXPECT_TRUE(saw_network);
}

// --------------------------------------------------------- site manager

TEST_F(RuntimeEnv, WorkloadUpdatesReachRepositoryAndForecaster) {
  const auto host = vdce_.testbed.hosts_in_site(SiteId(0)).front();
  WorkloadUpdate update{host, 5.0, 2.5, 100.0};
  vdce_.sites[0].manager->handle_workload(update);
  const auto rec = vdce_.sites[0].repository->resources().get(host);
  EXPECT_DOUBLE_EQ(rec.dynamic_attrs.cpu_load, 2.5);
  EXPECT_DOUBLE_EQ(rec.dynamic_attrs.last_update, 5.0);
  EXPECT_DOUBLE_EQ(vdce_.sites[0].forecaster->forecast(host).value(), 2.5);
}

TEST_F(RuntimeEnv, LivenessChangeMarksHost) {
  const auto host = vdce_.testbed.hosts_in_site(SiteId(0)).front();
  vdce_.sites[0].manager->handle_liveness(LivenessChange{host, 3.0, false});
  EXPECT_FALSE(
      vdce_.sites[0].repository->resources().get(host).dynamic_attrs.alive);
  vdce_.sites[0].manager->handle_liveness(LivenessChange{host, 6.0, true});
  EXPECT_TRUE(
      vdce_.sites[0].repository->resources().get(host).dynamic_attrs.alive);
}

TEST_F(RuntimeEnv, LoginWorks) {
  vdce_.sites[0].repository->users().add_user("ops", "pw", 3, "wan");
  EXPECT_EQ(vdce_.sites[0].manager->login("ops", "pw").priority, 3);
  EXPECT_THROW((void)vdce_.sites[0].manager->login("ops", "bad"),
               common::AuthError);
}

TEST_F(RuntimeEnv, RecordTaskTimeAppendsHistory) {
  vdce_.sites[0].manager->record_task_time("fft_forward", 0.42);
  const auto rec = vdce_.sites[0].repository->tasks().get("fft_forward");
  ASSERT_FALSE(rec.measured_history.empty());
  EXPECT_DOUBLE_EQ(rec.measured_history.back(), 0.42);
}

TEST_F(RuntimeEnv, DistributeAllocationSplitsPerHost) {
  sched::AllocationTable table("app");
  const auto hosts = vdce_.testbed.hosts_in_site(SiteId(0));
  for (int i = 0; i < 3; ++i) {
    sched::AllocationEntry e;
    e.task = common::TaskId(i);
    e.task_label = "t" + std::to_string(i);
    e.hosts = {hosts[i % 2]};
    e.site = SiteId(0);
    table.add(e);
  }
  // One row for the other site; must not appear in this site's portions.
  sched::AllocationEntry remote;
  remote.task = common::TaskId(9);
  remote.hosts = {vdce_.testbed.hosts_in_site(SiteId(1)).front()};
  remote.site = SiteId(1);
  table.add(remote);

  const auto portions = vdce_.sites[0].manager->distribute_allocation(table);
  std::size_t rows = 0;
  for (const auto& [host, entries] : portions) {
    rows += entries.size();
    EXPECT_EQ(
        vdce_.sites[0].repository->resources().get(host).static_attrs.site,
        SiteId(0));
  }
  EXPECT_EQ(rows, 3u);
}

// ------------------------------------------------------ control manager

TEST_F(RuntimeEnv, MonitoringPipelineUpdatesRepository) {
  vdce_.warm_up(20.0);
  const auto stats = vdce_.sites[0].control->stats();
  EXPECT_GT(stats.reports_received, 0u);
  EXPECT_GT(stats.updates_forwarded, 0u);
  EXPECT_LE(stats.updates_forwarded, stats.reports_received);

  // Repository dynamic attributes were refreshed.
  for (const auto& rec :
       vdce_.sites[0].repository->resources().hosts_in_site(SiteId(0))) {
    EXPECT_GT(rec.dynamic_attrs.last_update, 0.0);
  }
}

TEST_F(RuntimeEnv, FailureFlowsToRepository) {
  const auto host = vdce_.testbed.hosts_in_site(SiteId(0)).front();
  vdce_.testbed.fail_host(host, 5.0, 100.0);
  vdce_.warm_up(20.0);
  EXPECT_FALSE(
      vdce_.sites[0].repository->resources().get(host).dynamic_attrs.alive);
  // The scheduler no longer sees the host.
  EXPECT_EQ(vdce_.sites[0].repository->resources().alive_hosts().size(),
            vdce_.testbed.host_count() - 1);
}

// ----------------------------------------------------------- directory

TEST_F(RuntimeEnv, DirectoryRoutesHostSelection) {
  vdce_.warm_up(10.0);
  const auto graph = sim::make_c3i_graph();
  const auto result = vdce_.directory.host_selection(SiteId(1), graph);
  EXPECT_EQ(result.size(), graph.task_count());
  EXPECT_GT(vdce_.directory.stats().afg_multicasts, 0u);
  EXPECT_EQ(vdce_.sites[1].manager->stats().host_selection_requests, 1u);
}

TEST_F(RuntimeEnv, DirectoryAnswersWanQueries) {
  EXPECT_GT(vdce_.directory.transfer_time(SiteId(0), SiteId(1), 10.0), 0.0);
  EXPECT_DOUBLE_EQ(vdce_.directory.transfer_time(SiteId(0), SiteId(0), 10.0),
                   0.0);
  EXPECT_GT(vdce_.directory.base_time("lu_decomposition"), 0.0);
}

// --------------------------------------------------------------- engine

TEST_F(RuntimeEnv, EndToEndLinearSolver) {
  vdce_.warm_up(10.0);
  const auto graph = sim::make_linear_solver_graph(0.5);
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);

  ExecutionEngine engine(tasklib::builtin_registry());
  const auto result =
      engine.execute(graph, allocation, vdce_.sites[0].manager.get());

  EXPECT_EQ(result.records.size(), graph.task_count());
  EXPECT_GT(result.makespan_s, 0.0);
  const auto res_task = graph.find_by_label("residual");
  EXPECT_LT(result.outputs.at(*res_task).as_scalar(), 1e-9);

  // Measured times fed back into the task-performance database.
  EXPECT_FALSE(vdce_.sites[0].repository->tasks()
                   .get("lu_decomposition")
                   .measured_history.empty());
}

TEST_F(RuntimeEnv, EngineOverTcpWithEveryLibrary) {
  vdce_.warm_up(10.0);
  const auto graph = sim::make_c3i_graph(0.5);
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);

  for (const auto lib : {dm::MpLibrary::kP4, dm::MpLibrary::kPvm,
                         dm::MpLibrary::kMpi, dm::MpLibrary::kNcs}) {
    EngineConfig config;
    config.transport = dm::TransportKind::kTcp;
    config.library = lib;
    ExecutionEngine engine(tasklib::builtin_registry(), config);
    const auto result = engine.execute(graph, allocation);
    const auto rank = graph.find_by_label("rank");
    EXPECT_FALSE(result.outputs.at(*rank).as_threats().empty())
        << "library " << dm::to_string(lib);
  }
}

TEST_F(RuntimeEnv, EngineRejectsIncompleteAllocation) {
  const auto graph = sim::make_c3i_graph(0.5);
  sched::AllocationTable empty("x");
  ExecutionEngine engine(tasklib::builtin_registry());
  EXPECT_THROW((void)engine.execute(graph, empty), common::StateError);
}

TEST_F(RuntimeEnv, EngineDeterministicOutputsAcrossTransports) {
  vdce_.warm_up(10.0);
  const auto graph = sim::make_linear_solver_graph(0.5);
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);

  EngineConfig inproc;
  inproc.seed = 7;
  EngineConfig tcp;
  tcp.seed = 7;
  tcp.transport = dm::TransportKind::kTcp;

  ExecutionEngine e1(tasklib::builtin_registry(), inproc);
  ExecutionEngine e2(tasklib::builtin_registry(), tcp);
  const auto r1 = e1.execute(graph, allocation);
  const auto r2 = e2.execute(graph, allocation);
  const auto x = graph.find_by_label("x");
  EXPECT_EQ(r1.outputs.at(*x).as_vector(), r2.outputs.at(*x).as_vector());
}

TEST_F(RuntimeEnv, ConsoleAbortFailsRun) {
  vdce_.warm_up(5.0);
  const auto graph = sim::make_c3i_graph(0.5);
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(graph);

  dm::ConsoleService console;
  console.abort();
  ExecutionEngine engine(tasklib::builtin_registry());
  EXPECT_THROW((void)engine.execute(graph, allocation, nullptr, &console),
               common::StateError);
}

TEST_F(RuntimeEnv, EngineFailurePropagatesWithoutHanging) {
  // A graph that is structurally valid but type-broken at runtime: the
  // failing task must be named and every peer unblocked.
  vdce_.warm_up(5.0);
  afg::FlowGraph g("broken");
  const auto a = g.add_task("vector_generate", "vec");
  const auto b = g.add_task("lu_decomposition", "lu");  // wants a matrix
  const auto c = g.add_task("lu_lower", "lower");
  g.add_link(a, b, 0.1);
  g.add_link(b, c, 0.1);

  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(g);
  ExecutionEngine engine(tasklib::builtin_registry());
  try {
    (void)engine.execute(g, allocation);
    FAIL() << "expected StateError";
  } catch (const common::StateError& e) {
    EXPECT_NE(std::string(e.what()).find("lu"), std::string::npos);
  }
}

TEST_F(RuntimeEnv, EngineParallelTaskUsesAllAssignedHosts) {
  vdce_.warm_up(5.0);
  afg::FlowGraph g("par");
  afg::TaskProperties props;
  props.mode = afg::ComputeMode::kParallel;
  props.num_processors = 2;
  const auto src = g.add_task("synth_source", "src", props);
  const auto sink = g.add_task("synth_sink", "sink");
  g.add_link(src, sink, 0.1);

  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(g);
  EXPECT_EQ(allocation.entry(src).hosts.size(), 2u);
  ExecutionEngine engine(tasklib::builtin_registry());
  const auto result = engine.execute(g, allocation);
  EXPECT_GT(result.outputs.at(sink).as_scalar(), 0.0);
}

TEST_F(RuntimeEnv, EngineMatchesSequentialReference) {
  // Property: the distributed execution computes exactly what a
  // sequential topological evaluation with the same per-task seeds
  // computes.
  vdce_.warm_up(5.0);
  const auto& registry = tasklib::builtin_registry();
  common::Rng graph_rng(4242);
  for (int trial = 0; trial < 3; ++trial) {
    sim::SyntheticGraphParams params;
    params.family = sim::GraphFamily::kLayered;
    params.size = 3;
    params.width = 3;
    const auto graph = sim::make_synthetic_graph(params, graph_rng);

    sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
    const auto allocation = scheduler.schedule(graph);

    EngineConfig config;
    config.seed = 99;
    ExecutionEngine engine(tasklib::builtin_registry(), config);
    const auto result = engine.execute(graph, allocation);
    const auto app = result.app;

    // Sequential reference with the engine's seed derivation.
    std::map<common::TaskId, tasklib::Payload> reference;
    for (const auto id : graph.topological_order()) {
      const auto& node = graph.task(id);
      std::vector<tasklib::Payload> inputs;
      for (const auto parent : graph.ordered_parents(id)) {
        inputs.push_back(reference.at(parent));
      }
      common::Rng rng(config.seed ^
                      (static_cast<std::uint64_t>(app.value()) << 32) ^
                      id.value());
      tasklib::TaskContext ctx{node.props.input_size, &rng};
      reference.emplace(id, registry.run(node.library_task, inputs, ctx));
    }
    for (const auto& [id, payload] : result.outputs) {
      EXPECT_EQ(payload.to_wire(), reference.at(id).to_wire());
    }
  }
}

TEST_F(RuntimeEnv, DirectoryRejectsDuplicateSite) {
  SiteManagerDirectory dir;
  dir.add_site(*vdce_.sites[0].manager);
  EXPECT_THROW(dir.add_site(*vdce_.sites[0].manager), common::StateError);
}

// ----------------------------------------------------- app controller

TEST(AppControllerTest, LoadGuardRefusesOverloadedMachine) {
  dm::ChannelBroker broker(dm::TransportKind::kInProcess);
  ApplicationController controller(broker, dm::MpLibrary::kP4,
                                   common::AppId(1), HostId(0));
  controller.activate(dm::TaskWiring{common::AppId(1), common::TaskId(0),
                                     {}, {}});
  controller.set_load_guard([] { return 9.0; }, /*threshold=*/4.0);

  common::Rng rng(1);
  tasklib::TaskContext ctx{1.0, &rng};
  const auto outcome = controller.execute(tasklib::builtin_registry(),
                                          "synth_source", ctx);
  EXPECT_FALSE(outcome.completed);
  ASSERT_TRUE(outcome.reschedule.has_value());
  EXPECT_EQ(outcome.reschedule->host, HostId(0));
  EXPECT_DOUBLE_EQ(outcome.reschedule->observed_load, 9.0);
}

TEST(AppControllerTest, RunsWhenUnderThreshold) {
  dm::ChannelBroker broker(dm::TransportKind::kInProcess);
  ApplicationController controller(broker, dm::MpLibrary::kP4,
                                   common::AppId(1), HostId(0));
  controller.activate(dm::TaskWiring{common::AppId(1), common::TaskId(0),
                                     {}, {}});
  controller.set_load_guard([] { return 1.0; }, 4.0);
  common::Rng rng(1);
  tasklib::TaskContext ctx{1.0, &rng};
  const auto outcome = controller.execute(tasklib::builtin_registry(),
                                          "synth_source", ctx);
  EXPECT_TRUE(outcome.completed);
  EXPECT_GT(outcome.compute_elapsed_s, 0.0);
}

// ------------------------------------------------- crossed diamond

TEST(StageRunnerTest, CrossedDiamondOfLargePayloadsCannotDeadlock) {
  // Two sources of payloads larger than the TCP event loop's 8 MiB
  // high-water mark feed two consumers that read them in opposite port
  // orders.  Every stage receives in port order and sends in child
  // order on its own thread, so a send can block until its consumer
  // reaches that port; the run must still finish on every library (PVM
  // fragments each payload into thousands of frames) and transport.
  afg::FlowGraph g("crossed");
  afg::TaskProperties big;
  big.input_size = 1536.0;  // 1536 * 1024 doubles: about 12.6 MB
  const auto a = g.add_task("synth_source", "a", big);
  const auto b = g.add_task("synth_source", "b", big);
  const auto ab = g.add_task("synth_sink", "ab");
  const auto ba = g.add_task("synth_sink", "ba");
  g.add_link(a, ab, 1.0);
  g.add_link(b, ab, 1.0);
  g.add_link(b, ba, 1.0);
  g.add_link(a, ba, 1.0);
  ASSERT_EQ(g.ordered_parents(ab), (std::vector<common::TaskId>{a, b}));
  ASSERT_EQ(g.ordered_parents(ba), (std::vector<common::TaskId>{b, a}));

  sched::AllocationTable allocation("crossed");
  for (const auto& node : g.tasks()) {
    sched::AllocationEntry entry;
    entry.task = node.id;
    entry.task_label = node.label;
    entry.library_task = node.library_task;
    entry.hosts = {HostId(node.id.value())};
    entry.site = SiteId(0);
    allocation.add(entry);
  }

  for (const auto transport :
       {dm::TransportKind::kInProcess, dm::TransportKind::kTcp}) {
    for (const auto lib : {dm::MpLibrary::kP4, dm::MpLibrary::kPvm,
                           dm::MpLibrary::kMpi, dm::MpLibrary::kNcs}) {
      EngineConfig config;
      config.transport = transport;
      config.library = lib;
      const auto result = ExecutionEngine(tasklib::builtin_registry(), config)
                              .execute(g, allocation);
      const std::size_t a_bytes = result.outputs.at(a).size_bytes();
      const std::size_t b_bytes = result.outputs.at(b).size_bytes();
      ASSERT_GT(a_bytes, std::size_t{8} << 20);
      ASSERT_GT(b_bytes, std::size_t{8} << 20);
      for (const auto sink : {ab, ba}) {
        EXPECT_EQ(result.outputs.at(sink).as_scalar(),
                  static_cast<double>(a_bytes + b_bytes))
            << dm::to_string(lib);
      }
      for (const auto& rec : result.records) {
        if (rec.task == ab || rec.task == ba) {
          EXPECT_EQ(rec.bytes_received, a_bytes + b_bytes);
        }
      }
    }
  }
}

// ------------------------------------------------------ stage threads

/// Every task on a host of its own at site 0.
sched::AllocationTable host_per_task(const afg::FlowGraph& g) {
  sched::AllocationTable allocation(g.name());
  for (const auto& node : g.tasks()) {
    const HostId host(node.id.value());
    sched::AllocationEntry entry;
    entry.task = node.id;
    entry.task_label = node.label;
    entry.library_task = node.library_task;
    entry.hosts = {host};
    entry.site = SiteId(0);
    allocation.add(entry);
  }
  return allocation;
}

/// Kernel ids of the process's threads now.  Kernel ids, not
/// std::thread::id, which the C library recycles.
std::set<pid_t> live_tids() {
  std::set<pid_t> tids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    tids.insert(static_cast<pid_t>(std::stoi(entry.path().filename())));
  }
  return tids;
}

/// A registry whose one task, "tid_probe", records the kernel id of the
/// thread it computes on, over a fan graph: src -> four stages -> sink.
class TidProbe {
 public:
  TidProbe() {
    tasklib::LibraryEntry entry;
    entry.name = "tid_probe";
    entry.menu = "synthetic";
    entry.description = "records the thread that computes it";
    entry.min_inputs = 0;
    entry.max_inputs = 8;
    entry.fn = [this](const std::vector<tasklib::Payload>&,
                      const tasklib::TaskContext&) {
      std::lock_guard lk(mu_);
      tids_.push_back(gettid());
      return tasklib::Payload::of_scalar(1.0);
    };
    registry_.add(std::move(entry));
    const auto src = graph_.add_task("tid_probe", "src");
    const auto sink = graph_.add_task("tid_probe", "sink");
    for (int i = 0; i < 4; ++i) {
      const auto mid = graph_.add_task("tid_probe", "mid" + std::to_string(i));
      graph_.add_link(src, mid, 0.1);
      graph_.add_link(mid, sink, 0.1);
    }
    allocation_ = host_per_task(graph_);
  }

  /// One execute() of the fan graph; the stages' thread ids, one per
  /// computed task.
  std::vector<pid_t> run() {
    {
      std::lock_guard lk(mu_);
      tids_.clear();
    }
    (void)ExecutionEngine(registry_).execute(graph_, allocation_);
    std::lock_guard lk(mu_);
    return tids_;
  }

  [[nodiscard]] std::size_t tasks() const { return graph_.task_count(); }

 private:
  tasklib::TaskRegistry registry_;
  afg::FlowGraph graph_{"tid-fan"};
  sched::AllocationTable allocation_{"tid-fan"};
  std::mutex mu_;
  std::vector<pid_t> tids_;
};

TEST(StageThreadTest, EveryStageOfARunHasAThreadOfItsOwn) {
  TidProbe probe;
  const std::vector<pid_t> tids = probe.run();
  ASSERT_EQ(tids.size(), probe.tasks());
  EXPECT_EQ(std::set<pid_t>(tids.begin(), tids.end()).size(), probe.tasks());
}

TEST(StageThreadTest, SecondRunOfAGraphStartsNoThread) {
  // The first run's stage threads park when its round is joined; the
  // second run's stages all compute on them.
  TidProbe probe;
  ASSERT_EQ(probe.run().size(), probe.tasks());
  const std::set<pid_t> before = live_tids();
  const std::vector<pid_t> tids = probe.run();
  ASSERT_EQ(tids.size(), probe.tasks());
  EXPECT_EQ(std::set<pid_t>(tids.begin(), tids.end()).size(), probe.tasks());
  for (const pid_t tid : tids) {
    EXPECT_TRUE(before.contains(tid)) << "stage ran on a new thread " << tid;
  }
}

TEST(StageThreadTest, ComputeSecondsExcludeTheWaitForInputs) {
  // A source that sleeps 50 ms feeds a pass-through child.  The child
  // waits those 50 ms for its input, but computes for microseconds.
  tasklib::TaskRegistry registry;
  tasklib::LibraryEntry slow;
  slow.name = "slow_source";
  slow.menu = "synthetic";
  slow.description = "sleeps 50 ms, then emits a scalar";
  slow.fn = [](const std::vector<tasklib::Payload>&,
               const tasklib::TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return tasklib::Payload::of_scalar(1.0);
  };
  registry.add(std::move(slow));
  tasklib::LibraryEntry pass;
  pass.name = "pass_through";
  pass.menu = "synthetic";
  pass.description = "forwards its input";
  pass.min_inputs = 1;
  pass.max_inputs = 1;
  pass.fn = [](const std::vector<tasklib::Payload>& in,
               const tasklib::TaskContext&) { return in.front(); };
  registry.add(std::move(pass));

  afg::FlowGraph g("slow-chain");
  const auto src = g.add_task("slow_source", "src");
  const auto child = g.add_task("pass_through", "child");
  g.add_link(src, child, 0.1);
  const auto result = ExecutionEngine(registry).execute(g, host_per_task(g));

  for (const auto& rec : result.records) {
    if (rec.task == src) {
      EXPECT_GE(rec.compute_s, 0.050);
    } else {
      ASSERT_EQ(rec.task, child);
      EXPECT_LT(rec.compute_s, 0.010);
      EXPECT_GE(rec.turnaround_s, 0.050);  // the wait is turnaround
    }
  }
}

}  // namespace
}  // namespace vdce::rt
