// Tests for the parallel scheduling fan-out: the shared ThreadPool, the
// sharded PredictionCache (epoch invalidation + concurrent hammering),
// and the bit-identical-allocations guarantee of the parallel Site
// Scheduler path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "netsim/testbed.hpp"
#include "predict/prediction_cache.hpp"
#include "scheduler/directory.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce {
namespace {

using common::HostId;
using common::SiteId;
using common::TaskId;
using common::ThreadPool;

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> touched(kN);
  pool.parallel_for(
      0, kN, 64, [&](std::size_t i) { touched[i].fetch_add(1); }, 3);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForSerialWhenNoHelpers) {
  ThreadPool pool(4);
  std::size_t sum = 0;  // unsynchronised on purpose: must run inline
  pool.parallel_for(0, 100, 10, [&](std::size_t i) { sum += i; }, 0);
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   0, 1000, 8,
                   [](std::size_t i) {
                     if (i == 500) throw std::runtime_error("bad index");
                   },
                   2),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A 2-worker pool with 4 outer tasks that each fan out again: helpers
  // for the inner loops may never be scheduled, and the loop must
  // complete anyway because the caller executes chunks itself.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(
      0, 4, 1,
      [&](std::size_t) {
        pool.parallel_for(
            0, 100, 4, [&](std::size_t) { count.fetch_add(1); }, 2);
      },
      2);
  EXPECT_EQ(count.load(), 400);
}

TEST(ThreadPoolTest, SharedParallelForCoversEveryIndexOnce) {
  for (const std::size_t helpers : {std::size_t{0}, std::size_t{3}}) {
    std::vector<std::atomic<int>> hits(100);
    ThreadPool::shared_parallel_for(
        0, hits.size(), 7, [&](std::size_t i) { hits[i].fetch_add(1); },
        helpers);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, SharedPoolIsFixedAndReused) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

// ------------------------------------------------------ PredictionCache

TEST(PredictionCacheTest, MissThenHit) {
  predict::PredictionCache cache;
  predict::Prediction p;
  p.time_s = 1.5;
  EXPECT_FALSE(cache.find("fft", HostId(3), 2.0, 0).has_value());
  cache.put("fft", HostId(3), 2.0, 0, p);
  const auto hit = cache.find("fft", HostId(3), 2.0, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->time_s, 1.5);
  // Distinct input size or host is a different key.
  EXPECT_FALSE(cache.find("fft", HostId(3), 3.0, 0).has_value());
  EXPECT_FALSE(cache.find("fft", HostId(4), 2.0, 0).has_value());
}

TEST(PredictionCacheTest, EpochBumpInvalidates) {
  predict::PredictionCache cache;
  predict::Prediction p;
  p.time_s = 9.0;
  cache.put("fft", HostId(0), 1.0, 7, p);
  ASSERT_TRUE(cache.find("fft", HostId(0), 1.0, 7).has_value());
  // A monitoring update moved the epoch: the stale entry must not serve.
  EXPECT_FALSE(cache.find("fft", HostId(0), 1.0, 8).has_value());
  const auto s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.lookups, 2u);
}

TEST(PredictionCacheTest, ConcurrentHammerCountersReconcile) {
  predict::PredictionCache cache(8, 1024);
  constexpr int kThreads = 8;
  constexpr int kIters = 5'000;
  const std::vector<std::string> tasks = {"a", "b", "c", "d"};

  // The deterministic "prediction function" under memoisation: any hit
  // must return exactly the value computed for its (key, epoch).
  const auto value_of = [](const std::string& task, std::uint32_t host,
                           double size, std::uint64_t epoch) {
    return static_cast<double>(task[0]) + host * 10.0 + size +
           static_cast<double>(epoch) * 1000.0;
  };

  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint64_t> local_lookups{0};
  std::atomic<bool> mismatch{false};
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        common::Rng rng(static_cast<std::uint64_t>(t) + 1);
        for (int i = 0; i < kIters; ++i) {
          const std::string& task = tasks[rng.uniform_int(tasks.size())];
          const HostId host(static_cast<std::uint32_t>(rng.uniform_int(8)));
          const double size = 1.0 + static_cast<double>(rng.uniform_int(2));
          if (i % 512 == 0) epoch.fetch_add(1);  // a "monitoring update"
          const std::uint64_t e = epoch.load();
          local_lookups.fetch_add(1);
          if (const auto hit = cache.find(task, host, size, e)) {
            const double want = value_of(task, host.value(), size, e);
            if (hit->time_s != want) mismatch.store(true);
          } else {
            predict::Prediction p;
            p.time_s = value_of(task, host.value(), size, e);
            cache.put(task, host, size, e, p);
          }
        }
      });
    }
  }
  EXPECT_FALSE(mismatch.load()) << "a stale epoch leaked out of the cache";
  const auto s = cache.stats();
  EXPECT_EQ(s.lookups, local_lookups.load());
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_LE(s.invalidations, s.misses);
  EXPECT_EQ(s.insertions, s.misses);  // every miss was followed by a put
  EXPECT_GT(s.hits, 0u);
}

TEST(PredictionCacheTest, MidTrafficSnapshotsHoldInvariants) {
  // Regression: stats() used to read the counters without quiescing the
  // shards, so a snapshot taken between a lookup's `lookups` increment
  // and its `hits`/`misses` increment violated lookups == hits + misses.
  // Every snapshot -- including ones taken mid-hammer -- must now
  // satisfy the contract.
  predict::PredictionCache cache(4, 256);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> snapshots{0};

  std::jthread observer([&] {
    std::uint64_t last_lookups = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto s = cache.stats();
      ++snapshots;
      if (s.hits + s.misses != s.lookups) ++violations;
      if (s.invalidations > s.misses) ++violations;
      if (s.lookups < last_lookups) ++violations;  // counters monotone
      last_lookups = s.lookups;
    }
  });
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < 6; ++t) {
      workers.emplace_back([&cache, t] {
        common::Rng rng(static_cast<std::uint64_t>(t) + 99);
        for (int i = 0; i < 20'000; ++i) {
          const HostId host(static_cast<std::uint32_t>(rng.uniform_int(4)));
          const std::uint64_t epoch = static_cast<std::uint64_t>(i) / 4096;
          if (!cache.find("task", host, 1.0, epoch)) {
            cache.put("task", host, 1.0, epoch, predict::Prediction{});
          }
        }
      });
    }
  }
  stop.store(true, std::memory_order_release);
  observer.join();

  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(violations.load(), 0u)
      << "a mid-traffic stats() snapshot tore the counter invariants";
}

// ----------------------------------------- parallel/serial determinism

/// A populated multi-site environment, parameterised by testbed seed.
std::pair<std::vector<std::unique_ptr<repo::SiteRepository>>,
          std::unique_ptr<netsim::VirtualTestbed>>
make_env(std::uint64_t seed, sched::RepositoryDirectory& directory) {
  netsim::RandomTestbedParams params;
  params.num_sites = 4;
  params.groups_per_site = 2;
  params.hosts_per_group = 10;  // 20 hosts per site: above the grain
  auto testbed = std::make_unique<netsim::VirtualTestbed>(
      netsim::make_random_testbed(params, seed));
  std::vector<std::unique_ptr<repo::SiteRepository>> repositories;
  for (const SiteId site : testbed->sites()) {
    auto repository = std::make_unique<repo::SiteRepository>(site);
    tasklib::builtin_registry().install_defaults(repository->tasks());
    testbed->populate_repository(*repository, site);
    directory.add_site(site, repository.get());
    repositories.push_back(std::move(repository));
  }
  return {std::move(repositories), std::move(testbed)};
}

void expect_identical(const sched::AllocationTable& serial,
                      const sched::AllocationTable& parallel) {
  ASSERT_EQ(serial.rows().size(), parallel.rows().size());
  for (const auto& row : serial.rows()) {
    const auto& other = parallel.entry(row.task);
    EXPECT_EQ(row.hosts, other.hosts);
    EXPECT_EQ(row.site, other.site);
    // Bit-identical, not approximately equal: the parallel path must
    // evaluate exactly the same arithmetic.
    EXPECT_EQ(row.predicted_s, other.predicted_s);
  }
}

TEST(ParallelSchedulingTest, ParallelEqualsSerialAcrossSeedsAndPolicies) {
  const std::uint64_t seeds[] = {7, 21, 42};
  const sched::PriorityPolicy policies[] = {
      sched::PriorityPolicy::kLevel, sched::PriorityPolicy::kFifo,
      sched::PriorityPolicy::kRandomized};
  for (const std::uint64_t seed : seeds) {
    sched::RepositoryDirectory directory;
    auto env = make_env(seed, directory);
    common::Rng rng(seed);
    sim::SyntheticGraphParams gp;
    gp.family = sim::GraphFamily::kLayered;
    gp.size = 8;
    gp.width = 5;
    const auto graph = sim::make_synthetic_graph(gp, rng);

    for (const auto policy : policies) {
      for (const bool queue_aware : {false, true}) {
        sched::SiteSchedulerConfig serial_cfg;
        serial_cfg.k_nearest = 3;
        serial_cfg.priority = policy;
        serial_cfg.queue_aware = queue_aware;
        sched::SiteSchedulerConfig parallel_cfg = serial_cfg;
        parallel_cfg.threads = 8;

        sched::SiteScheduler serial(SiteId(0), directory, serial_cfg);
        sched::SiteScheduler parallel(SiteId(0), directory, parallel_cfg);
        const auto ts = serial.schedule(graph);
        const auto tp = parallel.schedule(graph);
        expect_identical(ts, tp);
        EXPECT_EQ(serial.consulted_sites(), parallel.consulted_sites());
      }
    }
  }
}

TEST(ParallelSchedulingTest, RepeatedSchedulingHitsTheCache) {
  sched::RepositoryDirectory directory;
  auto env = make_env(11, directory);
  common::Rng rng(5);
  sim::SyntheticGraphParams gp;
  gp.family = sim::GraphFamily::kLayered;
  gp.size = 6;
  gp.width = 4;
  const auto graph = sim::make_synthetic_graph(gp, rng);

  sched::SiteSchedulerConfig cfg;
  cfg.k_nearest = 3;
  cfg.threads = 4;
  sched::SiteScheduler scheduler(SiteId(0), directory, cfg);
  const auto first = scheduler.schedule(graph);
  const auto cold = directory.prediction_cache(SiteId(0)).stats();
  const auto second = scheduler.schedule(graph);
  const auto warm = directory.prediction_cache(SiteId(0)).stats();
  expect_identical(first, second);
  // Nothing changed between the runs, so the second is all hits.
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_GT(warm.hits, cold.hits);
}

TEST(ParallelSchedulingTest, MonitoringUpdateInvalidatesCachedPredictions) {
  sched::RepositoryDirectory directory;
  auto env = make_env(13, directory);
  auto& repositories = env.first;
  common::Rng rng(6);
  sim::SyntheticGraphParams gp;
  gp.family = sim::GraphFamily::kLayered;
  gp.size = 4;
  gp.width = 3;
  const auto graph = sim::make_synthetic_graph(gp, rng);

  sched::SiteSchedulerConfig cfg;
  cfg.k_nearest = 0;
  sched::SiteScheduler scheduler(SiteId(0), directory, cfg);
  (void)scheduler.schedule(graph);

  // A workload update on every local host: cached loads are now stale.
  auto& resources = repositories[0]->resources();
  for (const auto& host : resources.hosts_in_site(SiteId(0))) {
    auto dyn = host.dynamic_attrs;
    dyn.cpu_load += 10.0;
    resources.update_dynamic(host.host, dyn);
  }
  const auto before = directory.prediction_cache(SiteId(0)).stats();
  (void)scheduler.schedule(graph);
  const auto after = directory.prediction_cache(SiteId(0)).stats();
  // The epoch moved: nothing cached before the update may be served, so
  // the re-schedule misses (and explicitly invalidates) stale entries.
  EXPECT_GT(after.misses, before.misses);
  EXPECT_GT(after.invalidations, before.invalidations);
}

/// Threads of this process now.
std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// A threads = 1 placement (the default) runs its multicast and its
// scoring inline: the shared pool's workers are started only for a loop
// that gets a helper.  Checked in a fresh process, a re-executed
// death-test child, where no earlier test has built the pool.
TEST(ParallelSchedulingTest, SerialPlacementStartsNoThread) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        sched::RepositoryDirectory directory;
        auto env = make_env(17, directory);
        const auto graph = sim::make_c3i_graph();
        sched::SiteSchedulerConfig cfg;
        cfg.k_nearest = 3;
        ASSERT_EQ(cfg.threads, 1u);
        sched::SiteScheduler scheduler(SiteId(0), directory, cfg);
        const std::size_t before = live_threads();
        (void)scheduler.schedule(graph);
        const std::size_t after = live_threads();
        std::fprintf(stderr, "threads before %zu, after %zu\n", before,
                     after);
        std::exit(after == before ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "threads before");
}

}  // namespace
}  // namespace vdce
