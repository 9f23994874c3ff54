// Fault-tolerance tests for the live execution path: the engine's
// supervised retry loop (pre-compute guard refusals re-placed inside
// the gang, mid-run failures recovered by channel re-setup and input
// replay), the Control Manager's failure reporting, and the Site
// Scheduler's single-task reschedule entry point.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "common/error.hpp"
#include "netsim/testbed.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/engine.hpp"
#include "runtime/site_stack.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {
namespace {

using common::HostId;
using common::SiteId;
using common::TaskId;

/// One fully wired VDCE over the campus testbed (same shape as the
/// runtime tests' fixture), plus helpers to wire the engine's
/// fault-tolerance hooks to the real control plane.
class FaultEnv : public ::testing::Test {
 protected:
  /// Fault-tolerance hooks wired to the real control plane: the
  /// testbed's fault windows drive liveness, failures are reported to
  /// every site's Control Manager (only the owner reacts), and
  /// re-placements go through the Site Scheduler.
  [[nodiscard]] FaultTolerance wire_hooks(
      const sched::SiteScheduler& scheduler, const afg::FlowGraph& graph,
      const sched::AllocationTable& allocation) {
    FaultTolerance ft;
    ft.host_alive = vdce_.testbed.liveness_probe();
    ft.reschedule = [&scheduler, &graph, &allocation](
                        const afg::TaskNode& node,
                        const std::vector<HostId>& excluded) {
      return scheduler.reschedule(graph, allocation, node.id, excluded);
    };
    ft.on_failure = [this](const RescheduleRequest& request) {
      for (auto& site : vdce_.sites) {
        site.control->report_task_failure(request);
      }
    };
    // Virtual sleep: retry backoff costs the tests no wall-clock (an
    // in-gang nap would stall every peer blocked on the task).  May be
    // called concurrently from machine threads.
    ft.sleep = [this](double s) {
      virtual_slept_.fetch_add(s, std::memory_order_relaxed);
    };
    return ft;
  }

  std::atomic<double> virtual_slept_{0.0};

  LocalVdce vdce_{netsim::make_campus_testbed(13)};
};

// -------------------------------------------------- setup-ack protocol

TEST_F(FaultEnv, MidExecuteFailureAcksExactlyOnce) {
  // Regression: a task that throws *after* its channel-setup
  // acknowledgment must not decrement the setup latch a second time on
  // the error path (double count_down on std::latch is undefined
  // behaviour).  The type-broken task fails mid-execute among healthy
  // peers; every run must name the failing task and join cleanly.
  vdce_.warm_up(5.0);
  afg::FlowGraph g("broken-wide");
  const auto vec = g.add_task("vector_generate", "vec");
  const auto bad = g.add_task("lu_decomposition", "needs-matrix");
  const auto low = g.add_task("lu_lower", "lower");
  g.add_link(vec, bad, 0.1);
  g.add_link(bad, low, 0.1);
  // Healthy peers that must all unblock despite the failure.
  for (int i = 0; i < 4; ++i) {
    const auto src = g.add_task("synth_source", "src" + std::to_string(i));
    const auto sink = g.add_task("synth_sink", "snk" + std::to_string(i));
    g.add_link(src, sink, 0.1);
  }

  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(g);
  for (int round = 0; round < 3; ++round) {
    ExecutionEngine engine(tasklib::builtin_registry());
    try {
      (void)engine.execute(g, allocation);
      FAIL() << "expected StateError";
    } catch (const common::StateError& e) {
      EXPECT_NE(std::string(e.what()).find("needs-matrix"),
                std::string::npos);
    }
  }
}

// -------------------------------------------- injected host failures

TEST_F(FaultEnv, EngineRecoversFromInjectedHostFailure) {
  vdce_.warm_up(10.0);
  afg::FlowGraph g("ft-pipeline");
  const auto src = g.add_task("synth_source", "src");
  const auto sink = g.add_task("synth_sink", "sink");
  g.add_link(src, sink, 0.1);

  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(g);
  const HostId failed_host = allocation.entry(src).primary_host();
  const SiteId failed_site = allocation.entry(src).site;

  // Fault window covering the whole run; the live clock sits inside it.
  vdce_.testbed.fail_host(failed_host, 50.0, 100.0);
  vdce_.testbed.set_live_time(60.0);
  ASSERT_FALSE(vdce_.testbed.is_alive_now(failed_host));

  const FaultTolerance ft = wire_hooks(scheduler, g, allocation);
  ExecutionEngine engine(tasklib::builtin_registry());
  const auto result = engine.execute(
      g, allocation, vdce_.sites[0].manager.get(), nullptr, &ft);

  EXPECT_EQ(result.failures_recovered, 1u);
  EXPECT_EQ(result.reschedules, 1u);
  for (const auto& rec : result.records) {
    if (rec.task == src) {
      EXPECT_EQ(rec.attempts, 2);
      EXPECT_NE(rec.host, failed_host);
    } else {
      EXPECT_EQ(rec.attempts, 1);
    }
  }
  // The application still produced its outputs.
  EXPECT_GT(result.outputs.at(sink).as_scalar(), 0.0);

  // The failure report reached the owning site's repository: the dead
  // host is marked down before any future placement.
  EXPECT_FALSE(vdce_.sites[failed_site.value()]
                   .repository->resources()
                   .get(failed_host)
                   .dynamic_attrs.alive);
  EXPECT_GE(
      vdce_.sites[failed_site.value()].control->stats().reschedule_requests,
      1u);
  EXPECT_GE(
      vdce_.sites[failed_site.value()].control->stats().failures_detected,
      1u);
}

TEST_F(FaultEnv, RecoveryPreservesOutputs) {
  // The re-placed run must compute exactly what the failure-free run
  // computes (per-task RNG seeds survive the move).
  vdce_.warm_up(10.0);
  const auto g = sim::make_linear_solver_graph(0.5);
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(g);

  ExecutionEngine clean_engine(tasklib::builtin_registry());
  const auto clean = clean_engine.execute(g, allocation);

  const auto entry_task = g.entry_tasks().front();
  const HostId failed_host = allocation.entry(entry_task).primary_host();
  vdce_.testbed.fail_host(failed_host, 50.0, 100.0);
  vdce_.testbed.set_live_time(60.0);

  const FaultTolerance ft = wire_hooks(scheduler, g, allocation);
  ExecutionEngine faulty_engine(tasklib::builtin_registry());
  const auto recovered =
      faulty_engine.execute(g, allocation, nullptr, nullptr, &ft);

  EXPECT_GE(recovered.failures_recovered, 1u);
  ASSERT_EQ(clean.outputs.size(), recovered.outputs.size());
  for (const auto& [task, payload] : clean.outputs) {
    EXPECT_EQ(payload.to_wire(), recovered.outputs.at(task).to_wire());
  }
}

TEST_F(FaultEnv, LoadGuardRefusalRecovers) {
  vdce_.warm_up(10.0);
  afg::FlowGraph g("hot-host");
  const auto task = g.add_task("synth_source", "only");

  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(g);
  const HostId hot_host = allocation.entry(task).primary_host();

  FaultTolerance ft = wire_hooks(scheduler, g, allocation);
  ft.host_load = [hot_host](HostId host) {
    return host == hot_host ? 9.0 : 0.5;
  };
  std::atomic<int> load_refusals{0};
  ft.on_failure = [&](const RescheduleRequest& request) {
    if (request.kind == RescheduleRequest::Kind::kLoadThreshold) {
      ++load_refusals;
    }
    for (auto& site : vdce_.sites) site.control->report_task_failure(request);
  };

  EngineConfig config;
  config.load_threshold = 4.0;
  ExecutionEngine engine(tasklib::builtin_registry(), config);
  const auto result = engine.execute(g, allocation, nullptr, nullptr, &ft);

  EXPECT_EQ(result.failures_recovered, 1u);
  EXPECT_EQ(result.reschedules, 1u);
  EXPECT_EQ(result.records.front().attempts, 2);
  EXPECT_NE(result.records.front().host, hot_host);
  EXPECT_EQ(load_refusals.load(), 1);
  // A load refusal must NOT mark the host dead in the repository.
  EXPECT_TRUE(vdce_.sites[allocation.entry(task).site.value()]
                  .repository->resources()
                  .get(hot_host)
                  .dynamic_attrs.alive);
}

TEST_F(FaultEnv, NoFeasibleReplacementStillThrows) {
  // Every host dead: the retry loop must exhaust and surface the error
  // instead of spinning.
  vdce_.warm_up(10.0);
  afg::FlowGraph g("doomed");
  (void)g.add_task("synth_source", "only");
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(g);

  for (const HostId host : vdce_.testbed.all_hosts()) {
    vdce_.testbed.fail_host(host, 50.0, 100.0);
  }
  vdce_.testbed.set_live_time(60.0);

  const FaultTolerance ft = wire_hooks(scheduler, g, allocation);
  ExecutionEngine engine(tasklib::builtin_registry());
  EXPECT_THROW((void)engine.execute(g, allocation, nullptr, nullptr, &ft),
               common::StateError);
}

TEST_F(FaultEnv, HostFailureIsolatedBetweenConcurrentApps) {
  // Multi-app fault isolation: a host failure mid-run of app A must
  // not perturb concurrently running app B -- B keeps first-attempt
  // execution on every task and produces bit-identical outputs to the
  // same (graph, seed, app id, allocation) run alone.
  vdce_.warm_up(10.0);

  afg::FlowGraph ga("victim");
  const auto a_src = ga.add_task("synth_source", "src");
  const auto a_sink = ga.add_task("synth_sink", "sink");
  ga.add_link(a_src, a_sink, 0.1);
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto alloc_a = scheduler.schedule(ga);
  const HostId failed_host = alloc_a.entry(a_src).primary_host();

  // App B on hosts disjoint from the failed one, so its liveness
  // probe stays green throughout.
  afg::FlowGraph gb("bystander");
  const auto b_src = gb.add_task("synth_source", "src");
  const auto b_sink = gb.add_task("synth_sink", "sink");
  gb.add_link(b_src, b_sink, 0.1);
  std::vector<HostId> b_hosts;
  for (const HostId host : vdce_.testbed.hosts_in_site(SiteId(0))) {
    if (host != failed_host && b_hosts.size() < 2) b_hosts.push_back(host);
  }
  ASSERT_EQ(b_hosts.size(), 2u);
  sched::AllocationTable alloc_b("bystander");
  for (const auto& [task, host] : {std::pair{b_src, b_hosts[0]},
                                   std::pair{b_sink, b_hosts[1]}}) {
    sched::AllocationEntry entry;
    entry.task = task;
    entry.task_label = gb.task(task).label;
    entry.library_task = gb.task(task).library_task;
    entry.hosts = {host};
    entry.site = SiteId(0);
    alloc_b.add(entry);
  }

  // B's reference run, before any fault exists.
  const common::AppId b_app(7700);
  EngineConfig b_config;
  b_config.seed = 5;
  const auto b_solo = ExecutionEngine(tasklib::builtin_registry(), b_config)
                          .execute(gb, alloc_b, nullptr, nullptr, nullptr,
                                   b_app);

  vdce_.testbed.fail_host(failed_host, 50.0, 100.0);
  vdce_.testbed.set_live_time(60.0);
  ASSERT_FALSE(vdce_.testbed.is_alive_now(failed_host));

  RunResult a_result, b_result;
  std::string a_error, b_error;
  {
    std::jthread run_a([&] {
      try {
        const FaultTolerance ft = wire_hooks(scheduler, ga, alloc_a);
        ExecutionEngine engine(tasklib::builtin_registry());
        a_result = engine.execute(ga, alloc_a, vdce_.sites[0].manager.get(),
                                  nullptr, &ft);
      } catch (const std::exception& e) {
        a_error = e.what();
      }
    });
    std::jthread run_b([&] {
      try {
        const FaultTolerance ft = wire_hooks(scheduler, gb, alloc_b);
        ExecutionEngine engine(tasklib::builtin_registry(), b_config);
        b_result = engine.execute(gb, alloc_b, vdce_.sites[0].manager.get(),
                                  nullptr, &ft, b_app);
      } catch (const std::exception& e) {
        b_error = e.what();
      }
    });
  }
  ASSERT_TRUE(a_error.empty()) << a_error;
  ASSERT_TRUE(b_error.empty()) << b_error;

  // A recovered from the injected failure...
  EXPECT_GE(a_result.failures_recovered, 1u);
  for (const auto& rec : a_result.records) {
    if (rec.task == a_src) {
      EXPECT_GT(rec.attempts, 1);
      EXPECT_NE(rec.host, failed_host);
    }
  }
  // ...while B never noticed: first-attempt everywhere, original
  // hosts, and outputs bit-identical to its solo reference run.
  EXPECT_EQ(b_result.failures_recovered, 0u);
  EXPECT_EQ(b_result.reschedules, 0u);
  for (const auto& rec : b_result.records) {
    EXPECT_EQ(rec.attempts, 1) << rec.label;
  }
  ASSERT_EQ(b_result.outputs.size(), b_solo.outputs.size());
  for (const auto& [task, payload] : b_solo.outputs) {
    EXPECT_EQ(payload.to_wire(), b_result.outputs.at(task).to_wire());
  }
}

// ------------------------------------------- post-failure recovery

TEST(FaultRecoveryTest, TransientTaskErrorIsRetriedAndInputsReplayed) {
  // A task that throws on its first call brings down its consumer's
  // receive as well; the recovery pass must re-run the task, replay its
  // recorded output into the re-opened channels, and recover both.
  static std::atomic<int> calls{0};
  calls = 0;

  tasklib::TaskRegistry registry;
  tasklib::register_builtin_tasks(registry);
  tasklib::LibraryEntry flaky;
  flaky.name = "flaky_source";
  flaky.menu = "synthetic";
  flaky.description = "fails on the first call, succeeds after";
  flaky.min_inputs = 0;
  flaky.max_inputs = 0;
  flaky.fn = [](const std::vector<tasklib::Payload>&,
                const tasklib::TaskContext&) {
    if (calls.fetch_add(1) == 0) {
      throw common::StateError("transient fault");
    }
    return tasklib::Payload::of_scalar(42.0);
  };
  registry.add(std::move(flaky));

  afg::FlowGraph g("flaky-app");
  const auto src = g.add_task("flaky_source", "flaky");
  const auto sink = g.add_task("synth_sink", "sink");
  g.add_link(src, sink, 0.1);

  sched::AllocationTable allocation("flaky-app");
  for (const auto& [task, host] :
       {std::pair{src, HostId(0)}, std::pair{sink, HostId(1)}}) {
    sched::AllocationEntry entry;
    entry.task = task;
    entry.task_label = g.task(task).label;
    entry.library_task = g.task(task).library_task;
    entry.hosts = {host};
    entry.site = SiteId(0);
    allocation.add(entry);
  }

  // No liveness/load probes: both failures classify as task errors and
  // retry in place.  The rescheduler is present (it turns recovery on)
  // but must never be consulted.
  FaultTolerance ft;
  std::atomic<int> reschedule_calls{0};
  ft.reschedule = [&](const afg::TaskNode&, const std::vector<HostId>&)
      -> std::optional<sched::AllocationEntry> {
    ++reschedule_calls;
    return std::nullopt;
  };
  std::atomic<int> task_error_reports{0};
  ft.on_failure = [&](const RescheduleRequest& request) {
    if (request.kind == RescheduleRequest::Kind::kTaskError) {
      ++task_error_reports;
    }
  };
  ft.sleep = [](double) {};  // virtual sleep: no wall-clock backoff

  EngineConfig config;
  config.retry_backoff_s = 0.001;
  config.attempt_timeout_s = 20.0;
  config.recv_timeout_s = 20.0;
  ExecutionEngine engine(registry, config);
  const auto result = engine.execute(g, allocation, nullptr, nullptr, &ft);

  EXPECT_EQ(result.failures_recovered, 2u);  // the task and its consumer
  EXPECT_EQ(result.reschedules, 0u);
  EXPECT_EQ(reschedule_calls.load(), 0);
  EXPECT_EQ(task_error_reports.load(), 2);
  for (const auto& rec : result.records) {
    EXPECT_EQ(rec.attempts, 2) << rec.label;
  }
  EXPECT_DOUBLE_EQ(result.outputs.at(src).as_scalar(), 42.0);
  // The replayed input reached the sink: it counted the payload bytes.
  EXPECT_EQ(result.outputs.at(sink).as_scalar(),
            static_cast<double>(
                tasklib::Payload::of_scalar(42.0).size_bytes()));
}

TEST(FaultRecoveryTest, RetryBudgetExhaustionSurfacesError) {
  tasklib::TaskRegistry registry;
  tasklib::register_builtin_tasks(registry);
  tasklib::LibraryEntry hopeless;
  hopeless.name = "always_fails";
  hopeless.menu = "synthetic";
  hopeless.description = "fails every time";
  hopeless.min_inputs = 0;
  hopeless.max_inputs = 0;
  hopeless.fn = [](const std::vector<tasklib::Payload>&,
                   const tasklib::TaskContext&) -> tasklib::Payload {
    throw common::StateError("permanent fault");
  };
  registry.add(std::move(hopeless));

  afg::FlowGraph g("doomed-app");
  const auto task = g.add_task("always_fails", "doomed");
  sched::AllocationTable allocation("doomed-app");
  sched::AllocationEntry entry;
  entry.task = task;
  entry.task_label = "doomed";
  entry.library_task = "always_fails";
  entry.hosts = {HostId(0)};
  entry.site = SiteId(0);
  allocation.add(entry);

  FaultTolerance ft;
  ft.reschedule = [](const afg::TaskNode&, const std::vector<HostId>&)
      -> std::optional<sched::AllocationEntry> { return std::nullopt; };

  EngineConfig config;
  config.max_attempts = 2;
  config.retry_backoff_s = 0.001;
  ExecutionEngine engine(registry, config);
  try {
    (void)engine.execute(g, allocation, nullptr, nullptr, &ft);
    FAIL() << "expected StateError";
  } catch (const common::StateError& e) {
    EXPECT_NE(std::string(e.what()).find("doomed"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("permanent fault"),
              std::string::npos);
  }
}

// ---------------------------------------------- scheduler reschedule

TEST_F(FaultEnv, RescheduleSkipsExcludedHosts) {
  vdce_.warm_up(10.0);
  const auto g = sim::make_linear_solver_graph(0.5);
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(g);

  const auto task = g.entry_tasks().front();
  const HostId original = allocation.entry(task).primary_host();

  const auto replacement =
      scheduler.reschedule(g, allocation, task, {original});
  ASSERT_TRUE(replacement.has_value());
  EXPECT_NE(replacement->primary_host(), original);
  EXPECT_EQ(replacement->task, task);
  EXPECT_GT(replacement->predicted_s, 0.0);

  // Excluding every host of every consulted site leaves nothing.
  std::vector<HostId> all_hosts = vdce_.testbed.all_hosts();
  EXPECT_EQ(scheduler.reschedule(g, allocation, task, all_hosts),
            std::nullopt);
}

TEST_F(FaultEnv, ControlManagerRoutesFailureReports) {
  vdce_.warm_up(10.0);
  const HostId host = vdce_.testbed.hosts_in_site(SiteId(0)).front();
  RescheduleRequest request;
  request.app = common::AppId(1);
  request.task = TaskId(0);
  request.host = host;
  request.when = 11.0;
  request.kind = RescheduleRequest::Kind::kHostFailure;
  request.reason = "test failure";

  vdce_.sites[0].control->report_task_failure(request);
  EXPECT_FALSE(
      vdce_.sites[0].repository->resources().get(host).dynamic_attrs.alive);
  EXPECT_EQ(vdce_.sites[0].control->stats().failures_detected, 1u);
  EXPECT_EQ(vdce_.sites[0].control->stats().reschedule_requests, 1u);

  // Duplicate reports do not double-count the failure.
  vdce_.sites[0].control->report_task_failure(request);
  EXPECT_EQ(vdce_.sites[0].control->stats().failures_detected, 1u);
  EXPECT_EQ(vdce_.sites[0].control->stats().reschedule_requests, 2u);

  // A load-threshold request is counted but never flips liveness.
  const HostId other = vdce_.testbed.hosts_in_site(SiteId(0)).back();
  RescheduleRequest load_request = request;
  load_request.host = other;
  load_request.kind = RescheduleRequest::Kind::kLoadThreshold;
  vdce_.sites[0].control->report_task_failure(load_request);
  EXPECT_TRUE(
      vdce_.sites[0].repository->resources().get(other).dynamic_attrs.alive);
}

}  // namespace
}  // namespace vdce::rt
