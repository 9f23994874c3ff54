// Multi-application runtime tests: concurrent AFG admission through the
// AppSubmissionService, residual-capacity QoS, bounded fair-share
// queueing, and the per-app isolation invariant (an app's outputs are a
// pure function of (graph, seed, app id) -- never of what else ran).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "netsim/testbed.hpp"
#include "runtime/submission.hpp"
#include "scheduler/qos.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {
namespace {

using common::AppId;
using common::SiteId;

class MultiAppEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    testbed_ = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(13));
    repository_ = std::make_unique<repo::SiteRepository>(SiteId(0));
    tasklib::builtin_registry().install_defaults(repository_->tasks());
    testbed_->populate_repository(*repository_, SiteId(0));
    directory_.add_site(SiteId(0), repository_.get());
  }

  /// A cheap two-task pipeline (the fair-share tests run many of them
  /// back to back).
  [[nodiscard]] static afg::FlowGraph tiny_graph(const std::string& name) {
    afg::FlowGraph g(name);
    const auto src = g.add_task("synth_source", "src");
    const auto sink = g.add_task("synth_sink", "sink");
    g.add_link(src, sink, 0.01);
    return g;
  }

  [[nodiscard]] static SubmissionRequest request_for(
      afg::FlowGraph graph, double deadline_s, std::string user,
      double weight = 1.0, std::uint64_t seed = 1) {
    SubmissionRequest request;
    request.graph = std::move(graph);
    request.qos.deadline_s = deadline_s;
    request.user = std::move(user);
    request.weight = weight;
    request.seed = seed;
    return request;
  }

  std::unique_ptr<netsim::VirtualTestbed> testbed_;
  std::unique_ptr<repo::SiteRepository> repository_;
  sched::RepositoryDirectory directory_;
};

// ---------------------------------------------------------- admission

TEST_F(MultiAppEnv, AdmittedAppsMeetDeadlinesAcrossSeeds) {
  // A mixed batch of real applications over shared slots: every
  // admitted app completes, meets its deadline, and executes all of its
  // tasks -- across several engine seeds.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    AppSubmissionConfig config;
    config.slots = 2;
    AppSubmissionService service(SiteId(0), directory_,
                                 tasklib::builtin_registry(), config);

    const std::vector<afg::FlowGraph> graphs = {
        sim::make_linear_solver_graph(0.25),
        sim::make_c3i_graph(0.25),
        sim::make_fourier_graph(0.25),
        tiny_graph("tiny"),
    };
    constexpr double kDeadline = 1e9;
    std::vector<AppId> apps;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      apps.push_back(service.submit(request_for(
          graphs[i], kDeadline, "user" + std::to_string(i), 1.0,
          seed + i)));
    }

    for (std::size_t i = 0; i < apps.size(); ++i) {
      const auto status = service.wait(apps[i]);
      EXPECT_EQ(status.state, SubmissionState::kCompleted)
          << "seed " << seed << " app " << i << ": " << status.error;
      EXPECT_TRUE(status.admission.admitted);
      EXPECT_GE(status.admission.slack_s, 0.0);
      EXPECT_LE(status.result.makespan_s, kDeadline);
      EXPECT_EQ(status.result.records.size(), graphs[i].task_count());
      EXPECT_GE(status.grant_index, 1u);
    }

    const auto stats = service.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.submitted,
              stats.admitted + stats.rejected + stats.queued);
    EXPECT_EQ(stats.queued, stats.queued_then_admitted);
  }
}

TEST_F(MultiAppEnv, WaitOnUnknownTicketThrows) {
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry());
  EXPECT_THROW((void)service.wait(AppId(999)), common::NotFoundError);
  EXPECT_THROW((void)service.status(AppId(999)), common::NotFoundError);
}

// ---------------------------------------------------------- isolation

TEST_F(MultiAppEnv, ConcurrentAppsAreBitIdenticalToSoloRuns) {
  // The isolation invariant: each app's outputs under 4-way concurrency
  // equal, bit for bit, the outputs of the same (graph, seed, app id)
  // replayed alone on a fresh engine with the same allocation.
  const auto graph = sim::make_linear_solver_graph(0.25);
  const std::vector<std::uint64_t> seeds = {11, 22, 33, 44};

  AppSubmissionConfig config;
  config.slots = 4;
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry(), config);
  std::vector<AppId> apps;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    apps.push_back(service.submit(request_for(
        graph, 1e9, "user" + std::to_string(i), 1.0, seeds[i])));
  }

  std::vector<SubmissionStatus> statuses;
  for (const AppId app : apps) {
    statuses.push_back(service.wait(app));
    ASSERT_EQ(statuses.back().state, SubmissionState::kCompleted)
        << statuses.back().error;
  }

  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const auto& concurrent = statuses[i];
    EngineConfig engine_config;
    engine_config.seed = seeds[i];
    ExecutionEngine engine(tasklib::builtin_registry(), engine_config);
    const auto solo = engine.execute(graph, concurrent.allocation,
                                     nullptr, nullptr, nullptr,
                                     concurrent.app);
    ASSERT_EQ(solo.outputs.size(), concurrent.result.outputs.size());
    for (const auto& [task, payload] : solo.outputs) {
      EXPECT_EQ(payload.to_wire(),
                concurrent.result.outputs.at(task).to_wire())
          << "app " << i << " task " << task.value();
    }
  }

  // Different seeds genuinely produce different numbers (the invariant
  // above is not vacuous).
  std::vector<std::byte> wire0, wire1;
  for (const auto& [task, payload] : statuses[0].result.outputs) {
    const auto w = payload.to_wire();
    wire0.insert(wire0.end(), w.begin(), w.end());
  }
  for (const auto& [task, payload] : statuses[1].result.outputs) {
    const auto w = payload.to_wire();
    wire1.insert(wire1.end(), w.begin(), w.end());
  }
  EXPECT_NE(wire0, wire1);
}

// ---------------------------------------------------------- fair share

TEST_F(MultiAppEnv, FairShareWeightsOrderGrants) {
  // One slot, paused service: fix the queue, then release and check the
  // stride-scheduling grant order.  alice (weight 2) owns a 0.5 stride,
  // bob (weight 1) a 1.0 stride; hand-simulating the stride race gives
  // A1 B1 A2 A3 B2 A4 B3 B4.
  AppSubmissionConfig config;
  config.slots = 1;
  config.start_paused = true;
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry(), config);

  std::vector<AppId> alice, bob;
  for (int i = 0; i < 4; ++i) {
    alice.push_back(service.submit(
        request_for(tiny_graph("a" + std::to_string(i)), 1e9, "alice",
                    2.0, 100 + i)));
  }
  for (int i = 0; i < 4; ++i) {
    bob.push_back(service.submit(
        request_for(tiny_graph("b" + std::to_string(i)), 1e9, "bob",
                    1.0, 200 + i)));
  }
  EXPECT_EQ(service.stats().queue_depth, 8u);

  service.resume();
  service.drain();

  std::map<std::size_t, std::string> by_grant;
  for (int i = 0; i < 4; ++i) {
    by_grant[service.status(alice[i]).grant_index] =
        "A" + std::to_string(i + 1);
    by_grant[service.status(bob[i]).grant_index] =
        "B" + std::to_string(i + 1);
  }
  std::vector<std::string> order;
  for (const auto& [grant, label] : by_grant) order.push_back(label);
  const std::vector<std::string> expected = {"A1", "B1", "A2", "A3",
                                             "B2", "A4", "B3", "B4"};
  EXPECT_EQ(order, expected);

  const auto stats = service.stats();
  EXPECT_EQ(stats.queued, 8u);
  EXPECT_EQ(stats.queued_then_admitted, 8u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.completed, 8u);
}

// --------------------------------------------------------- backpressure

TEST_F(MultiAppEnv, BackpressureBoundsTheReadyQueue) {
  auto& metrics = common::MetricsRegistry::global();
  const auto submitted0 = metrics.counter("submission.submitted").value();
  const auto rejected0 = metrics.counter("submission.rejected").value();
  const auto completed0 = metrics.counter("submission.completed").value();

  AppSubmissionConfig config;
  config.slots = 1;
  config.start_paused = true;
  config.max_queue = 3;
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry(), config);

  std::vector<AppId> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(service.submit(request_for(
        tiny_graph("bp" + std::to_string(i)), 1e9, "carol", 1.0,
        10 + i)));
  }

  // Queued submissions carry a drain ETA; the overflow one is rejected
  // by backpressure even though its QoS admission held.
  EXPECT_EQ(service.status(apps[1]).state, SubmissionState::kQueued);
  EXPECT_GT(service.status(apps[1]).queue_eta_s, 0.0);
  const auto overflow = service.status(apps[3]);
  EXPECT_EQ(overflow.state, SubmissionState::kRejected);
  EXPECT_TRUE(overflow.admission.admitted);
  EXPECT_NE(overflow.error.find("backpressure"), std::string::npos);
  EXPECT_STREQ(to_string(overflow.state), "rejected");

  service.resume();
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.queued, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.queued_then_admitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
  // The reconciliation invariants, and their global-registry mirror.
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.rejected + stats.queued);
  EXPECT_EQ(stats.queued, stats.queued_then_admitted);
  EXPECT_EQ(stats.admitted + stats.queued_then_admitted,
            stats.completed + stats.failed);
  EXPECT_EQ(metrics.counter("submission.submitted").value() - submitted0,
            stats.submitted);
  EXPECT_EQ(metrics.counter("submission.rejected").value() - rejected0,
            stats.rejected);
  EXPECT_EQ(metrics.counter("submission.completed").value() - completed0,
            stats.completed);
}

// --------------------------------------------------- residual admission

TEST_F(MultiAppEnv, ResidualAdmissionReflectsCommittedLoad) {
  // The same deadline that holds on an idle system is refused while an
  // admitted app still owns the hosts, and holds again once it
  // finishes.  Independent same-shape tasks + the queue-blind scheduler
  // stack everything on the best host, so the committed occupancy
  // roughly doubles the second app's estimate.
  common::Rng rng(5);
  sim::SyntheticGraphParams params;
  params.family = sim::GraphFamily::kIndependent;
  params.size = 3;
  params.min_transfer_mb = 0.001;
  params.max_transfer_mb = 0.01;
  const auto graph = sim::make_synthetic_graph(params, rng);

  sched::SiteScheduler scheduler(SiteId(0), directory_);
  const auto baseline_allocation = scheduler.schedule(graph);
  const double idle_estimate = sched::predicted_makespan(
      graph, baseline_allocation, directory_);
  ASSERT_GT(idle_estimate, 0.0);

  AppSubmissionConfig config;
  config.slots = 1;
  config.start_paused = true;
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry(), config);

  const AppId first =
      service.submit(request_for(graph, 10.0 * idle_estimate, "dan"));
  const auto first_status = service.status(first);
  ASSERT_EQ(first_status.state, SubmissionState::kQueued);
  EXPECT_NEAR(first_status.admission.predicted_makespan_s, idle_estimate,
              1e-9);

  // Second app, same graph, deadline comfortably above the idle
  // estimate -- but the first app's committed host-seconds push the
  // residual estimate past it.
  const double tight_deadline = 1.5 * idle_estimate;
  const AppId second =
      service.submit(request_for(graph, tight_deadline, "erin"));
  const auto second_status = service.status(second);
  EXPECT_EQ(second_status.state, SubmissionState::kRejected);
  EXPECT_FALSE(second_status.admission.admitted);
  EXPECT_GT(second_status.admission.predicted_makespan_s, tight_deadline);
  EXPECT_LT(second_status.admission.slack_s, 0.0);

  service.resume();
  service.drain();

  // The occupancy was released with the first app: the same tight
  // deadline is admitted now.
  const AppId third =
      service.submit(request_for(graph, tight_deadline, "erin"));
  const auto third_status = service.wait(third);
  EXPECT_EQ(third_status.state, SubmissionState::kCompleted)
      << third_status.error;
  EXPECT_NEAR(third_status.admission.predicted_makespan_s, idle_estimate,
              1e-9);
}

}  // namespace
}  // namespace vdce::rt
