// Fault-tolerance tests for the live execution path: the engine's
// supervised retry loop (pre-compute guard refusals re-placed inside
// the gang, mid-run failures recovered by channel re-setup and input
// replay), the one recovery decision (recovery.hpp) enumerated over
// small rounds and swept over every fault point of two live graphs, the
// Control Manager's failure reporting, and the Site Scheduler's
// single-task reschedule entry point.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "netsim/testbed.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/engine.hpp"
#include "runtime/recovery.hpp"
#include "runtime/site_stack.hpp"
#include "runtime/streaming.hpp"
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
  // A task that throws *after* its channel-setup acknowledgment fails
  // its run without touching the set-up again: the engine collected
  // every acknowledgment on its own thread before handing the stages
  // over.  (The name dates from an acknowledgment latch that the error
  // path could count down twice; the stage runner has no latch now.)
  // The type-broken task fails mid-execute among healthy peers; every
  // run must name the failing task and join cleanly.
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

TEST_F(FaultEnv, AttemptBudgetIsTheSimulators) {
  // The engine twin of DynamicSimEnv.AttemptBudgetIsTheEngines: a lone
  // task whose host and whose first replacement are both dead needs a
  // third attempt; with a budget of 2 the run fails naming it, in the
  // recovery decision's one wording.
  vdce_.warm_up(10.0);
  afg::FlowGraph g("lone");
  const TaskId task = g.add_task("synth_source", "solo");
  sched::SiteScheduler scheduler(SiteId(0), vdce_.directory);
  const auto allocation = scheduler.schedule(g);
  const HostId first = allocation.entry(task).primary_host();
  const auto second = scheduler.reschedule(g, allocation, task, {first});
  ASSERT_TRUE(second.has_value());
  vdce_.testbed.fail_host(first, 50.0, 100.0);
  vdce_.testbed.fail_host(second->primary_host(), 50.0, 100.0);
  vdce_.testbed.set_live_time(60.0);

  const FaultTolerance ft = wire_hooks(scheduler, g, allocation);
  EngineConfig config;
  config.max_attempts = 2;
  ExecutionEngine engine(tasklib::builtin_registry(), config);
  try {
    (void)engine.execute(g, allocation, nullptr, nullptr, &ft);
    FAIL() << "a task with no attempt left must fail the run";
  } catch (const common::StateError& e) {
    EXPECT_NE(std::string(e.what()).find("task solo exceeded 2 attempts "
                                         "(task solo failed: refused"),
              std::string::npos)
        << e.what();
  }
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
  // recorded output into the re-opened channels, and recover both.  Only
  // the cause is charged: the consumer's re-run is collateral and free.
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
  config.recv_timeout_s = 20.0;
  ExecutionEngine engine(registry, config);
  const auto result = engine.execute(g, allocation, nullptr, nullptr, &ft);

  EXPECT_EQ(result.failures_recovered, 1u);  // the task, not its consumer
  EXPECT_EQ(result.reschedules, 0u);
  EXPECT_EQ(reschedule_calls.load(), 0);
  EXPECT_EQ(task_error_reports.load(), 1);
  for (const auto& rec : result.records) {
    EXPECT_EQ(rec.attempts, rec.task == src ? 2 : 1) << rec.label;
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

// ------------------------------------ the one recovery decision, pure

constexpr AttemptOutcome kOutcomes[] = {
    AttemptOutcome::kCompleted, AttemptOutcome::kRefused,
    AttemptOutcome::kFailed, AttemptOutcome::kCollateral};

bool failed(const StageFacts& s) {
  return s.outcome != AttemptOutcome::kCompleted;
}

/// Every (outcome, host alive, attempts charged) state of one stage
/// under `budget`.
std::vector<StageFacts> stage_states(int budget) {
  std::vector<StageFacts> states;
  for (const AttemptOutcome outcome : kOutcomes) {
    for (const bool alive : {true, false}) {
      for (int attempts = 1; attempts <= budget; ++attempts) {
        states.push_back({attempts, alive, outcome});
      }
    }
  }
  return states;
}

/// The rules of recovery.hpp as predicates over one decided round:
/// empty when all hold, else the first one broken.
std::string broken_rule(std::span<const StageFacts> round, std::size_t cause,
                        int budget,
                        std::span<const RecoveryDecision> decisions) {
  if (decisions.size() != round.size()) return "one decision per stage";
  // Whether the stage's own outcome calls for a charge.
  const auto own_charge = [](const StageFacts& s) {
    return s.outcome == AttemptOutcome::kRefused ||
           s.outcome == AttemptOutcome::kFailed ||
           (s.outcome == AttemptOutcome::kCollateral && !s.host_alive);
  };
  bool round_charges = false;  // before the budget
  for (const StageFacts& s : round) {
    round_charges = round_charges || own_charge(s);
  }
  bool progress = false;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const StageFacts& s = round[i];
    const RecoveryDecision& d = decisions[i];
    const bool must_charge =
        own_charge(s) || (i == cause && failed(s) && !round_charges);
    progress = progress || d.charge || d.action == RecoveryAction::kFail;
    if (!failed(s)) {
      if (d.charge || d.action != RecoveryAction::kKeep) {
        return "a completed stage is kept, free";
      }
      continue;
    }
    if (must_charge && s.attempts >= budget) {
      if (d.charge || d.action != RecoveryAction::kFail) {
        return "a charge past the budget fails the app instead";
      }
      continue;
    }
    if (d.charge != must_charge) {
      return "charge the cause, not the collateral";
    }
    const RecoveryAction where =
        s.outcome == AttemptOutcome::kRefused || !s.host_alive
            ? RecoveryAction::kMove
            : RecoveryAction::kRetry;
    if (d.action != where) {
      return "refusals and dead hosts move, live hosts retry in place";
    }
  }
  if (!progress) return "every failed round charges an attempt";
  return {};
}

TEST(RecoveryDecision, EveryRoundOfUpToFourStagesKeepsTheRules) {
  // Every assignment of stage states to rounds of 1..4 stages, under
  // budgets 1..3, with the cause at every failed stage in turn.
  std::size_t decided = 0;
  for (int budget = 1; budget <= 3; ++budget) {
    const std::vector<StageFacts> states = stage_states(budget);
    for (std::size_t n = 1; n <= 4; ++n) {
      std::vector<std::size_t> pick(n, 0);
      std::vector<StageFacts> round(n);
      for (bool more = true; more;) {
        for (std::size_t i = 0; i < n; ++i) round[i] = states[pick[i]];
        for (std::size_t cause = 0; cause < n; ++cause) {
          if (!failed(round[cause])) continue;
          const auto decisions = decide_recovery(round, cause, budget);
          const std::string broken =
              broken_rule(round, cause, budget, decisions);
          ++decided;
          if (!broken.empty()) {
            std::string where;
            for (const StageFacts& s : round) {
              where += " (" + std::to_string(static_cast<int>(s.outcome)) +
                       (s.host_alive ? " alive " : " dead ") +
                       std::to_string(s.attempts) + ")";
            }
            FAIL() << broken << ": budget " << budget << " cause " << cause
                   << " round" << where;
          }
        }
        std::size_t i = 0;  // next assignment (an odometer over `pick`)
        while (i < n && ++pick[i] == states.size()) pick[i++] = 0;
        more = i < n;
      }
    }
  }
  EXPECT_GT(decided, 1000000u);
}

TEST(RecoveryDecision, OneDeathChargesOnceInEitherOrder) {
  // c's task fails as its host dies, and d lives on the same host.
  // Either d's guard refuses first (moved in place, then its receive
  // fails on c's closed link on the new, live host), or d's receive
  // fails first (on the dead host, moved at the round's end).  Both
  // orders cost d exactly one attempt and one move, c too.
  constexpr int kBudget = 2;
  const StageFacts refusal{.attempts = 1,
                           .host_alive = false,
                           .outcome = AttemptOutcome::kRefused};
  const RecoveryDecision in_place =
      decide_recovery({&refusal, 1}, 0, kBudget).front();
  ASSERT_TRUE(in_place.charge);
  ASSERT_EQ(in_place.action, RecoveryAction::kMove);
  const std::vector<StageFacts> refused_first{
      {.attempts = 1, .host_alive = false, .outcome = AttemptOutcome::kFailed},
      {.attempts = 2,
       .host_alive = true,
       .outcome = AttemptOutcome::kCollateral}};
  const std::vector<StageFacts> collateral_first{
      {.attempts = 1, .host_alive = false, .outcome = AttemptOutcome::kFailed},
      {.attempts = 1,
       .host_alive = false,
       .outcome = AttemptOutcome::kCollateral}};
  const auto a = decide_recovery(refused_first, 0, kBudget);
  const auto b = decide_recovery(collateral_first, 0, kBudget);
  for (const auto* round : {&a, &b}) {
    EXPECT_TRUE((*round)[0].charge);
    EXPECT_EQ((*round)[0].action, RecoveryAction::kMove);
  }
  // d refused first: charged and moved in place, then re-run for free.
  EXPECT_FALSE(a[1].charge);
  EXPECT_EQ(a[1].action, RecoveryAction::kRetry);
  // d's receive failed first: charged and moved at the round's end.
  EXPECT_TRUE(b[1].charge);
  EXPECT_EQ(b[1].action, RecoveryAction::kMove);
}

TEST(RecoveryDecision, RunsEndWithinOnePlusStagesTimesRetriesRounds) {
  // Adversarial runs in which every round fails, with seeded outcomes,
  // hosts and in-place refusals: each ends (the app fails) within
  // 1 + stages * (max_attempts - 1) rounds.
  common::Rng rng(27);
  for (int budget = 1; budget <= 3; ++budget) {
    for (std::size_t n = 1; n <= 4; ++n) {
      const int bound = 1 + static_cast<int>(n) * (budget - 1);
      for (int run = 0; run < 200; ++run) {
        std::vector<int> attempts(n, 1);
        int rounds = 0;
        for (bool over = false; !over;) {
          ++rounds;
          ASSERT_LE(rounds, bound) << "budget " << budget << " stages " << n;
          std::vector<StageFacts> round(n);
          for (std::size_t i = 0; i < n; ++i) {
            StageFacts& s = round[i];
            s.host_alive = rng.uniform() < 0.5;
            s.outcome = kOutcomes[rng.uniform_int(4)];
            if (rng.uniform() < 0.3) {  // refused before its first frame
              const StageFacts refusal{.attempts = attempts[i],
                                       .outcome = AttemptOutcome::kRefused};
              if (decide_recovery({&refusal, 1}, 0, budget).front().charge) {
                ++attempts[i];
              } else {
                s.outcome = AttemptOutcome::kRefused;  // it stands
              }
            }
            s.attempts = attempts[i];
          }
          std::size_t cause = rng.uniform_int(n);
          round[cause].outcome = AttemptOutcome::kCollateral;  // it failed
          const auto decisions = decide_recovery(round, cause, budget);
          for (std::size_t i = 0; i < n; ++i) {
            over = over || decisions[i].action == RecoveryAction::kFail;
            if (decisions[i].charge) ++attempts[i];
          }
        }
      }
    }
  }
}

// ------------------------------------------------ the fault-point sweep
//
// For each stage of two graphs -- the pipeline a->b->c->d (batch) and the
// four-stage stream -- the stage's host dies at each point the engine's
// seams reach: its guard (FaultTolerance::host_alive), inside its
// compute, and after its compute (a wrapped copy of the task registry).
// Each point runs 20 times, and every run must charge exactly the
// victim, once (so attempts, engine.retries, engine.reschedules and the
// on_failure reports are identical from run to run and equal to each
// other), with outputs bit-identical to the fault-free run.  CI runs
// this under TSan and ASan.

enum class DeathPoint { kGuard, kInCompute, kAfterCompute };

constexpr std::pair<DeathPoint, const char*> kPoints[] = {
    {DeathPoint::kGuard, "guard"},
    {DeathPoint::kInCompute, "compute (inside)"},
    {DeathPoint::kAfterCompute, "compute (after)"}};
constexpr int kSweepRuns = 20;

/// One stage's host dies on cue: at its `frame`-th guard check or
/// during or after its `frame`-th compute.  `victim` invalid is the
/// fault-free run.
struct SweepFault {
  HostId victim;
  std::string victim_task;  // the stage's (wrapped) library task
  DeathPoint point = DeathPoint::kGuard;
  std::uint64_t frame = 0;
  std::atomic<bool> dead{false};
  std::atomic<std::uint64_t> guards{0};
  std::atomic<std::uint64_t> computes{0};
  std::mutex mu;
  std::map<TaskId, int> charges;  // on_failure reports per task

  FaultTolerance hooks() {
    FaultTolerance ft;
    ft.host_alive = [this](HostId h) {
      if (h != victim) return true;
      if (point == DeathPoint::kGuard && guards.fetch_add(1) == frame) {
        dead = true;
      }
      return !dead.load();
    };
    ft.reschedule = [](const afg::TaskNode& node, const std::vector<HostId>&)
        -> std::optional<sched::AllocationEntry> {
      sched::AllocationEntry e;
      e.task = node.id;
      e.task_label = node.label;
      e.library_task = node.library_task;
      e.hosts = {HostId(90 + node.id.value())};  // a fresh standby
      e.site = SiteId(0);
      return e;
    };
    ft.on_failure = [this](const RescheduleRequest& request) {
      std::lock_guard lk(mu);
      ++charges[request.task];
    };
    ft.sleep = [](double) {};
    return ft;
  }
};

/// The builtins plus one wrapped copy, "sweep_<label>", of each stage's
/// library task, whose calls consult `*fault` (so every stage's compute
/// is a seam of its own).  `graph` is rewired onto the copies.
tasklib::TaskRegistry sweep_registry(afg::FlowGraph& graph,
                                     SweepFault* const* fault) {
  tasklib::TaskRegistry registry;
  tasklib::register_builtin_tasks(registry);
  afg::FlowGraph wrapped(graph.name());
  for (const afg::TaskNode& node : graph.tasks()) {
    tasklib::LibraryEntry entry = registry.get(node.library_task);
    entry.name = "sweep_" + node.label;
    entry.fn = [fault, name = entry.name, inner = entry.fn](
                   const std::vector<tasklib::Payload>& in,
                   const tasklib::TaskContext& ctx) {
      SweepFault& f = **fault;
      const bool due = name == f.victim_task &&
                       f.point != DeathPoint::kGuard &&
                       f.computes.fetch_add(1) == f.frame;
      if (due && f.point == DeathPoint::kInCompute) {
        f.dead = true;
        throw common::StateError("host died mid-compute");
      }
      tasklib::Payload out = inner(in, ctx);
      if (due) f.dead = true;  // after its compute
      return out;
    };
    registry.add(std::move(entry));
    (void)wrapped.add_task("sweep_" + node.label, node.label, node.props);
  }
  for (const afg::TaskNode& node : graph.tasks()) {
    for (const TaskId child : graph.children(node.id)) {
      wrapped.add_link(node.id, child, graph.link(node.id, child).transfer_mb);
    }
  }
  graph = std::move(wrapped);
  return registry;
}

/// One stage per host, hosts 1..n.
sched::AllocationTable one_host_each(const afg::FlowGraph& graph) {
  sched::AllocationTable table(graph.name());
  std::uint64_t host = 1;
  for (const afg::TaskNode& node : graph.tasks()) {
    sched::AllocationEntry e;
    e.task = node.id;
    e.task_label = node.label;
    e.library_task = node.library_task;
    e.hosts = {HostId(host++)};
    e.site = SiteId(0);
    table.add(e);
  }
  return table;
}

std::uint64_t counter_value(const char* name) {
  return common::MetricsRegistry::global().counter(name).value();
}

TEST(FaultPointSweep, BatchPipelineChargesEachDeathOnceAtEveryPoint) {
  afg::FlowGraph graph("sweep-pipeline");
  const TaskId a = graph.add_task("synth_source", "a");
  const TaskId b = graph.add_task("synth_compute", "b");
  const TaskId c = graph.add_task("synth_compute", "c");
  const TaskId d = graph.add_task("synth_sink", "d");
  graph.add_link(a, b, 0.05);
  graph.add_link(b, c, 0.05);
  graph.add_link(c, d, 0.05);
  SweepFault* current = nullptr;
  const tasklib::TaskRegistry registry = sweep_registry(graph, &current);
  const auto allocation = one_host_each(graph);
  const common::AppId app(2700);

  SweepFault clean;
  current = &clean;
  const RunResult reference = ExecutionEngine(registry).execute(
      graph, allocation, nullptr, nullptr, nullptr, app);

  for (const afg::TaskNode& node : graph.tasks()) {
    for (const auto& [point, where] : kPoints) {
      SCOPED_TRACE(node.label + " dies at its " + where);
      // A batch stage runs one frame: a death after it is never probed.
      const int charges = point == DeathPoint::kAfterCompute ? 0 : 1;
      std::map<TaskId, int> want;
      if (charges > 0) want[node.id] = charges;
      for (int run = 0; run < kSweepRuns; ++run) {
        SweepFault fault;
        fault.victim = allocation.entry(node.id).primary_host();
        fault.victim_task = node.library_task;
        fault.point = point;
        current = &fault;
        const FaultTolerance ft = fault.hooks();
        const std::uint64_t retries0 = counter_value("engine.retries");
        const std::uint64_t moves0 = counter_value("engine.reschedules");
        const RunResult result = ExecutionEngine(registry).execute(
            graph, allocation, nullptr, nullptr, &ft, app);

        EXPECT_EQ(fault.charges, want) << "run " << run;
        for (const TaskRunRecord& rec : result.records) {
          EXPECT_EQ(rec.attempts, 1 + (rec.task == node.id ? charges : 0))
              << rec.label;
        }
        EXPECT_EQ(counter_value("engine.retries") - retries0,
                  static_cast<std::uint64_t>(charges));
        EXPECT_EQ(counter_value("engine.reschedules") - moves0,
                  static_cast<std::uint64_t>(charges));
        for (const auto& [task, payload] : reference.outputs) {
          EXPECT_EQ(payload.to_wire(), result.outputs.at(task).to_wire());
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(FaultPointSweep, StreamChargesEachDeathOnceAtEveryPoint) {
  afg::FlowGraph graph("sweep-stream");
  const TaskId src = graph.add_task("stream_window_source", "src");
  const TaskId rs = graph.add_task("stream_resample", "rs");
  const TaskId fft = graph.add_task("stream_window_fft", "fft");
  const TaskId sink = graph.add_task("stream_sink", "sink");
  graph.add_link(src, rs, 0.001);
  graph.add_link(rs, fft, 0.001);
  graph.add_link(fft, sink, 0.001);
  SweepFault* current = nullptr;
  const tasklib::TaskRegistry registry = sweep_registry(graph, &current);
  const auto allocation = one_host_each(graph);
  const common::AppId app(2701);
  StreamingConfig config;
  config.seed = 27;
  config.frames = 16;
  config.channel_capacity = 2;
  config.checkpoint_window = 4;

  SweepFault clean;
  current = &clean;
  const SinkStreamResult want =
      StreamingEngine(registry, config)
          .execute(graph, allocation, nullptr, app)
          .sinks.at(sink);

  for (const afg::TaskNode& node : graph.tasks()) {
    for (const auto& [point, where] : kPoints) {
      SCOPED_TRACE(node.label + " dies at its " + where);
      for (int run = 0; run < kSweepRuns; ++run) {
        SweepFault fault;
        fault.victim = allocation.entry(node.id).primary_host();
        fault.victim_task = node.library_task;
        fault.point = point;
        fault.frame = 6;  // mid-stream: every point ends a round
        current = &fault;
        const FaultTolerance ft = fault.hooks();
        CheckpointStore store;
        const std::uint64_t retries0 = counter_value("engine.retries");
        const StreamRunResult result =
            StreamingEngine(registry, config)
                .execute(graph, allocation, &ft, app, &store);

        // The victim is charged and moved once; the stages its failure
        // aborted restart for free.
        EXPECT_EQ(fault.charges, (std::map<TaskId, int>{{node.id, 1}}))
            << "run " << run;
        EXPECT_EQ(counter_value("engine.retries") - retries0, 1u);
        EXPECT_EQ(result.reschedules, 1u);
        EXPECT_EQ(result.restarts, 1);
        const SinkStreamResult& got = result.sinks.at(sink);
        EXPECT_EQ(got.frames_emitted, want.frames_emitted);
        EXPECT_EQ(got.digest, want.digest);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace vdce::rt
