// Concurrency stress tests: wide fan-outs over real transports, engine
// reuse across applications, broker key isolation, and DSM churn.
// These guard the thread/protocol machinery against regressions that
// unit tests at lower concurrency would miss.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "dsm/dsm.hpp"
#include "netsim/testbed.hpp"
#include "runtime/engine.hpp"
#include "runtime/submission.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce {
namespace {

using common::SiteId;

class StressEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    testbed_ = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(55));
    repository_ = std::make_unique<repo::SiteRepository>(SiteId(0));
    tasklib::builtin_registry().install_defaults(repository_->tasks());
    testbed_->populate_repository(*repository_, SiteId(0));
    directory_.add_site(SiteId(0), repository_.get());
  }

  sched::AllocationTable schedule(const afg::FlowGraph& graph) {
    sched::SiteSchedulerConfig config;
    config.queue_aware = true;
    sched::SiteScheduler scheduler(SiteId(0), directory_, config);
    return scheduler.schedule(graph);
  }

  std::unique_ptr<netsim::VirtualTestbed> testbed_;
  std::unique_ptr<repo::SiteRepository> repository_;
  sched::RepositoryDirectory directory_;
};

TEST_F(StressEnv, WideFanOutOverTcp) {
  // 1 source feeding 16 computes feeding reductions: 20+ concurrent
  // machine threads with real sockets.
  common::Rng rng(1);
  sim::SyntheticGraphParams params;
  params.family = sim::GraphFamily::kForkJoin;
  params.size = 16;
  params.min_transfer_mb = 0.001;
  params.max_transfer_mb = 0.01;
  const auto graph = sim::make_synthetic_graph(params, rng);
  const auto allocation = schedule(graph);

  rt::EngineConfig config;
  config.transport = dm::TransportKind::kTcp;
  rt::ExecutionEngine engine(tasklib::builtin_registry(), config);
  const auto result = engine.execute(graph, allocation);
  EXPECT_EQ(result.records.size(), graph.task_count());
}

TEST_F(StressEnv, DeepChainOverTcp) {
  common::Rng rng(2);
  sim::SyntheticGraphParams params;
  params.family = sim::GraphFamily::kChain;
  params.size = 24;
  params.min_transfer_mb = 0.001;
  params.max_transfer_mb = 0.01;
  const auto graph = sim::make_synthetic_graph(params, rng);
  const auto allocation = schedule(graph);

  rt::EngineConfig config;
  config.transport = dm::TransportKind::kTcp;
  rt::ExecutionEngine engine(tasklib::builtin_registry(), config);
  const auto result = engine.execute(graph, allocation);
  EXPECT_EQ(result.records.size(), 24u);
}

TEST_F(StressEnv, EngineReuseAcrossManyApplications) {
  // The same engine executes many applications back to back; app ids
  // must isolate broker keys so no run sees a previous run's channels.
  const auto graph = sim::make_c3i_graph(0.25);
  const auto allocation = schedule(graph);
  rt::ExecutionEngine engine(tasklib::builtin_registry());
  common::AppId last_app;
  for (int round = 0; round < 10; ++round) {
    const auto result = engine.execute(graph, allocation);
    EXPECT_EQ(result.records.size(), graph.task_count());
    EXPECT_NE(result.app, last_app);
    last_app = result.app;
  }
}

TEST_F(StressEnv, ConcurrentEnginesDoNotInterfere) {
  // Two engines (independent brokers) run different apps at once.
  const auto g1 = sim::make_c3i_graph(0.25);
  const auto g2 = sim::make_fourier_graph(0.25);
  const auto a1 = schedule(g1);
  const auto a2 = schedule(g2);

  std::string e1_error, e2_error;
  std::jthread t1([&] {
    try {
      rt::ExecutionEngine engine(tasklib::builtin_registry());
      for (int i = 0; i < 5; ++i) (void)engine.execute(g1, a1);
    } catch (const std::exception& e) {
      e1_error = e.what();
    }
  });
  std::jthread t2([&] {
    try {
      rt::ExecutionEngine engine(tasklib::builtin_registry());
      for (int i = 0; i < 5; ++i) (void)engine.execute(g2, a2);
    } catch (const std::exception& e) {
      e2_error = e.what();
    }
  });
  t1.join();
  t2.join();
  EXPECT_TRUE(e1_error.empty()) << e1_error;
  EXPECT_TRUE(e2_error.empty()) << e2_error;
}

TEST_F(StressEnv, ManyConcurrentSubmissions) {
  // 32 submitter threads race one submission service: mixed
  // admit/reject outcomes and shared engine slots.  Afterwards every
  // counter must reconcile exactly -- no lost and no double-executed
  // app.
  rt::AppSubmissionConfig config;
  config.slots = 4;
  config.max_queue = 64;
  rt::AppSubmissionService service(SiteId(0), directory_,
                                   tasklib::builtin_registry(), config);

  constexpr int kSubmitters = 32;
  std::vector<common::AppId> tickets(kSubmitters);
  {
    std::vector<std::jthread> submitters;
    for (int i = 0; i < kSubmitters; ++i) {
      submitters.emplace_back([&, i] {
        afg::FlowGraph g("app" + std::to_string(i));
        const auto src = g.add_task("synth_source", "src");
        const auto sink = g.add_task("synth_sink", "sink");
        g.add_link(src, sink, 0.01);
        rt::SubmissionRequest request;
        request.graph = std::move(g);
        // Every 4th submission carries an impossible deadline and must
        // be rejected; the rest are comfortably admitted.
        request.qos.deadline_s = (i % 4 == 0) ? 0.0 : 1e9;
        request.user = "user" + std::to_string(i % 5);
        request.weight = 1.0 + (i % 3);
        request.seed = 1000 + static_cast<std::uint64_t>(i);
        tickets[static_cast<std::size_t>(i)] =
            service.submit(std::move(request));
      });
    }
  }
  service.drain();

  std::size_t completed = 0, rejected = 0;
  std::set<std::uint32_t> seen_apps;
  for (const auto ticket : tickets) {
    ASSERT_TRUE(ticket.valid());
    EXPECT_TRUE(seen_apps.insert(ticket.value()).second);
    const auto status = service.wait(ticket);
    if (status.state == rt::SubmissionState::kCompleted) {
      ++completed;
      // Executed exactly once, under its own app id, to completion.
      EXPECT_EQ(status.result.app, ticket);
      EXPECT_EQ(status.result.records.size(), 2u);
      for (const auto& rec : status.result.records) {
        EXPECT_EQ(rec.attempts, 1);
      }
    } else {
      EXPECT_EQ(status.state, rt::SubmissionState::kRejected);
      EXPECT_LT(status.admission.slack_s, 0.0);
      ++rejected;
    }
  }
  EXPECT_EQ(completed, 24u);
  EXPECT_EQ(rejected, 8u);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.rejected, 8u);
  EXPECT_EQ(stats.completed, 24u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.rejected + stats.queued);
  EXPECT_EQ(stats.queued, stats.queued_then_admitted);
  EXPECT_EQ(stats.admitted + stats.queued_then_admitted,
            stats.completed + stats.failed);
}

TEST_F(StressEnv, HundredThousandSubmissionFirehose) {
  // The D15 admission front door at scale: 100k submissions firehosed
  // from 4 threads through batched admission against a bounded queue,
  // with priority preemption and a concurrent shed_queued() operator in
  // the mix.  Every counter must reconcile exactly afterwards --
  // nothing lost, nothing double-counted.
  // VDCE_STRESS_SUBMITS scales the volume down for sanitizer runs.
  std::size_t total = 100000;
  if (const char* env = std::getenv("VDCE_STRESS_SUBMITS")) {
    total = static_cast<std::size_t>(std::stoul(env));
  }

  rt::AppSubmissionConfig config;
  config.slots = 2;
  config.max_queue = 64;
  config.terminal_record_cap = 1024;
  rt::AppSubmissionService service(SiteId(0), directory_,
                                   tasklib::builtin_registry(), config);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatch = 500;
  std::atomic<std::size_t> submitted{0};
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::size_t k = 0;
        for (;;) {
          const std::size_t start = submitted.fetch_add(kBatch);
          if (start >= total) break;
          const std::size_t count = std::min(kBatch, total - start);
          std::vector<rt::SubmissionRequest> requests;
          requests.reserve(count);
          for (std::size_t i = 0; i < count; ++i, ++k) {
            afg::FlowGraph g("fh" + std::to_string(start + i));
            const auto src = g.add_task("synth_source", "src");
            const auto sink = g.add_task("synth_sink", "sink");
            g.add_link(src, sink, 0.01);
            rt::SubmissionRequest request;
            request.graph = std::move(g);
            request.qos.deadline_s = 1e9;
            request.user = "user" + std::to_string((t * 31 + k) % 23);
            request.weight = 1.0 + static_cast<double>(k % 3);
            request.priority = static_cast<int>(k % 3);
            request.seed = 1 + start + i;
            requests.push_back(std::move(request));
          }
          (void)service.submit_batch(std::move(requests));
        }
      });
    }
    // The operator's pressure valve runs concurrently with the flood.
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        (void)service.shed_queued(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // Full reconciliation across every shedding tier.
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.rejected + stats.queued);
  EXPECT_EQ(stats.queued,
            stats.queued_then_admitted + stats.preempted + stats.shed);
  EXPECT_EQ(stats.admitted + stats.queued_then_admitted,
            stats.completed + stats.failed);
  // The bounded queue actually bounded: the overwhelming majority of
  // the flood was rejected or shed, and record retirement kept the
  // in-memory footprint at the cap.
  EXPECT_GT(stats.rejected + stats.preempted + stats.shed, total / 2);
  EXPECT_LE(stats.records_retained, config.terminal_record_cap + 2);
  EXPECT_GT(stats.completed, 0u);
}

TEST_F(StressEnv, ConcurrentExecuteOnSharedEngine) {
  // Regression: app-id assignment on a shared engine is atomic, so
  // concurrent execute() calls never collide on broker link keys.
  const auto graph = sim::make_c3i_graph(0.25);
  const auto allocation = schedule(graph);
  rt::ExecutionEngine engine(tasklib::builtin_registry());

  std::mutex mu;
  std::set<std::uint32_t> apps;
  std::vector<std::string> errors;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int round = 0; round < 3; ++round) {
          try {
            const auto result = engine.execute(graph, allocation);
            std::lock_guard lk(mu);
            EXPECT_TRUE(apps.insert(result.app.value()).second);
          } catch (const std::exception& e) {
            std::lock_guard lk(mu);
            errors.emplace_back(e.what());
          }
        }
      });
    }
  }
  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_EQ(apps.size(), 12u);
}

TEST(DsmStress, ManyVariablesManyNodes) {
  dsm::DsmServer server;
  constexpr int kNodes = 8;
  constexpr int kRounds = 40;
  std::vector<std::unique_ptr<dsm::DsmNode>> nodes;
  for (int i = 0; i < kNodes; ++i) nodes.push_back(server.attach());

  // Every node hammers its own variable and reads its neighbour's.
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kNodes; ++i) {
      threads.emplace_back([&, i] {
        const std::string mine = "var" + std::to_string(i);
        const std::string theirs =
            "var" + std::to_string((i + 1) % kNodes);
        for (int round = 0; round < kRounds; ++round) {
          nodes[i]->write(mine,
                          tasklib::Payload::of_scalar(round));
          try {
            (void)nodes[i]->read(theirs);
          } catch (const common::NotFoundError&) {
            // neighbour has not written yet: acceptable
          }
        }
      });
    }
  }
  // Every variable holds its final round value.
  auto viewer = server.attach();
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_DOUBLE_EQ(
        viewer->read("var" + std::to_string(i)).as_scalar(), kRounds - 1);
  }
}

TEST(DsmStress, InterleavedLocksAcrossManyNodes) {
  dsm::DsmServer server;
  constexpr int kNodes = 6;
  constexpr int kIncs = 25;
  std::vector<std::unique_ptr<dsm::DsmNode>> nodes;
  for (int i = 0; i < kNodes; ++i) nodes.push_back(server.attach());
  nodes[0]->write("c0", tasklib::Payload::of_scalar(0.0));
  nodes[0]->write("c1", tasklib::Payload::of_scalar(0.0));

  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kNodes; ++i) {
      threads.emplace_back([&, i] {
        // Half the nodes use lock A / counter 0, half lock B / counter 1.
        const std::string lock = i % 2 == 0 ? "A" : "B";
        const std::string counter = i % 2 == 0 ? "c0" : "c1";
        for (int round = 0; round < kIncs; ++round) {
          nodes[i]->acquire(lock);
          const double v = nodes[i]->read(counter).as_scalar();
          nodes[i]->write(counter, tasklib::Payload::of_scalar(v + 1.0));
          nodes[i]->release(lock);
        }
      });
    }
  }
  EXPECT_DOUBLE_EQ(nodes[0]->read("c0").as_scalar(), 3.0 * kIncs);
  EXPECT_DOUBLE_EQ(nodes[0]->read("c1").as_scalar(), 3.0 * kIncs);
}

}  // namespace
}  // namespace vdce
