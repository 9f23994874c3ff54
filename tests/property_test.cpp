// Cross-module property tests: randomized round-trips and invariants
// that hold for arbitrary (seeded) inputs.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "afg/levels.hpp"
#include "afg/serialize.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "datamgr/frame.hpp"
#include "datamgr/ring_channel.hpp"
#include "repository/repository.hpp"
#include "runtime/liveness.hpp"
#include "scheduler/qos.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/static_sim.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce {
namespace {

using common::HostId;
using common::Rng;
using common::SiteId;

// ----------------------------------------------- repository persistence

/// Builds a randomized repository, persists it, reloads it, and checks
/// every record survives byte-exact.
TEST(PersistenceProperty, RandomRepositoryRoundTrip) {
  Rng rng(606);
  const auto dir =
      std::filesystem::temp_directory_path() / "vdce_prop_repo";
  for (int trial = 0; trial < 5; ++trial) {
    std::filesystem::remove_all(dir);
    repo::SiteRepository original{SiteId(trial)};

    // Users.
    const auto nusers = 1 + rng.uniform_int(5);
    for (std::uint64_t u = 0; u < nusers; ++u) {
      original.users().add_user(
          "user" + std::to_string(u), "pw" + std::to_string(rng() % 1000),
          static_cast<int>(rng.uniform_int(10)),
          rng.bernoulli(0.5) ? "wan" : "local");
    }
    // Hosts.
    const auto nhosts = 1 + rng.uniform_int(8);
    std::vector<HostId> hosts;
    for (std::uint64_t h = 0; h < nhosts; ++h) {
      repo::HostStaticAttrs attrs;
      attrs.host_name = "host" + std::to_string(h);
      attrs.ip_address = "10.0.0." + std::to_string(h);
      attrs.arch = static_cast<repo::ArchType>(rng.uniform_int(5));
      attrs.os = static_cast<repo::OsType>(rng.uniform_int(5));
      attrs.total_memory_mb = rng.uniform(32.0, 512.0);
      attrs.site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(3)));
      attrs.group =
          common::GroupId(static_cast<std::uint32_t>(rng.uniform_int(3)));
      const auto id = original.resources().register_host(attrs);
      hosts.push_back(id);
      repo::HostDynamicAttrs dyn;
      dyn.cpu_load = rng.uniform(0.0, 5.0);
      dyn.available_memory_mb = rng.uniform(0.0, attrs.total_memory_mb);
      dyn.alive = rng.bernoulli(0.9);
      dyn.last_update = rng.uniform(0.0, 100.0);
      original.resources().update_dynamic(id, dyn);
    }
    // Tasks + weights + constraints.
    const auto ntasks = 1 + rng.uniform_int(6);
    for (std::uint64_t t = 0; t < ntasks; ++t) {
      repo::TaskPerformanceRecord rec;
      rec.task_name = "task" + std::to_string(t);
      rec.base_time_s = rng.uniform(0.01, 5.0);
      rec.computation_size = rng.uniform(0.1, 20.0);
      rec.communication_size_mb = rng.uniform(0.001, 10.0);
      rec.memory_req_mb = rng.uniform(1.0, 128.0);
      const auto nhist = rng.uniform_int(5);
      for (std::uint64_t i = 0; i < nhist; ++i) {
        rec.measured_history.push_back(rng.uniform(0.01, 10.0));
      }
      original.tasks().register_task(rec);
      for (const auto h : hosts) {
        if (rng.bernoulli(0.7)) {
          original.tasks().set_power_weight(rec.task_name, h,
                                            rng.uniform(0.1, 4.0));
        }
        if (rng.bernoulli(0.8)) {
          original.constraints().set_location(
              rec.task_name, h, "/bin/" + rec.task_name);
        }
      }
    }

    original.save(dir);
    repo::SiteRepository loaded{SiteId(trial)};
    loaded.load(dir);

    // Users authenticate with their original passwords.
    for (const auto& acct : original.users().all()) {
      const auto reloaded = loaded.users().find(acct.user_name);
      ASSERT_TRUE(reloaded.has_value());
      EXPECT_EQ(reloaded->password_hash, acct.password_hash);
      EXPECT_EQ(reloaded->priority, acct.priority);
      EXPECT_EQ(reloaded->access_domain, acct.access_domain);
    }
    // Hosts byte-identical.
    for (const auto& rec : original.resources().all_hosts()) {
      const auto r = loaded.resources().get(rec.host);
      EXPECT_EQ(r.static_attrs.host_name, rec.static_attrs.host_name);
      EXPECT_EQ(r.static_attrs.arch, rec.static_attrs.arch);
      EXPECT_DOUBLE_EQ(r.dynamic_attrs.cpu_load,
                       rec.dynamic_attrs.cpu_load);
      EXPECT_EQ(r.dynamic_attrs.alive, rec.dynamic_attrs.alive);
      EXPECT_DOUBLE_EQ(r.dynamic_attrs.last_update,
                       rec.dynamic_attrs.last_update);
    }
    // Tasks, weights, constraints.
    for (const auto& name : original.tasks().task_names()) {
      const auto a = original.tasks().get(name);
      const auto b = loaded.tasks().get(name);
      EXPECT_DOUBLE_EQ(a.base_time_s, b.base_time_s);
      EXPECT_EQ(a.measured_history, b.measured_history);
      for (const auto h : hosts) {
        EXPECT_DOUBLE_EQ(
            original.tasks().power_weight(name, h, repo::ArchType::kSparc),
            loaded.tasks().power_weight(name, h, repo::ArchType::kSparc));
        EXPECT_EQ(original.constraints().location(name, h),
                  loaded.constraints().location(name, h));
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- payload fuzzing

/// Truncating a valid payload wire image at any byte never crashes: it
/// either throws ParseError on decode or fails the type check.
TEST(PayloadProperty, TruncationAlwaysThrowsCleanly) {
  Rng rng(707);
  const auto m = tasklib::Matrix::random(5, 7, rng);
  const auto payload = tasklib::Payload::of_matrix(m);
  const auto wire = payload.to_wire();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<std::byte> truncated(wire.begin(),
                                     wire.begin() +
                                         static_cast<std::ptrdiff_t>(cut));
    try {
      const auto decoded = tasklib::Payload::from_wire(truncated);
      (void)decoded.as_matrix();
      // Only the complete image may decode successfully.
      FAIL() << "truncated payload decoded at cut " << cut;
    } catch (const common::ParseError&) {
      // expected
    } catch (const common::StateError&) {
      // type-tag survived but body truncated to another type: also fine
    }
  }
  // The untruncated image decodes.
  EXPECT_EQ(tasklib::Payload::from_wire(wire).as_matrix(), m);
}

/// Corrupting the AFG text at a random line yields ParseError, never a
/// crash or silent acceptance of garbage directives.
TEST(AfgProperty, GarbageLinesRejected) {
  Rng rng(808);
  const auto graph = sim::make_linear_solver_graph();
  const auto text = afg::to_text(graph);
  const char* garbage[] = {"node x y", "task", "link a", "app", "= = ="};
  for (const char* bad : garbage) {
    EXPECT_THROW((void)afg::from_text(text + bad + "\n"),
                 common::ParseError)
        << bad;
  }
}

// -------------------------------------------- schedule/simulate invariants

class ScheduleSimProperty : public ::testing::TestWithParam<int> {};

/// For arbitrary graphs: the schedule covers all tasks, the simulated
/// run respects precedence and host serialisation, and the QoS
/// estimator is a finite positive number.
TEST_P(ScheduleSimProperty, EndToEndInvariants) {
  const int seed = GetParam();
  Rng rng(seed);

  netsim::RandomTestbedParams tb_params;
  tb_params.num_sites = 2;
  tb_params.groups_per_site = 2;
  tb_params.hosts_per_group = 3;
  const auto config = netsim::make_random_testbed(tb_params, 1000 + seed);
  netsim::VirtualTestbed testbed(config);
  repo::SiteRepository repository(SiteId(0));
  tasklib::builtin_registry().install_defaults(repository.tasks());
  testbed.populate_repository(repository, SiteId(0));
  sched::RepositoryDirectory directory;
  directory.add_site(SiteId(0), &repository);
  repo::SiteRepository repository1(SiteId(1));
  tasklib::builtin_registry().install_defaults(repository1.tasks());
  testbed.populate_repository(repository1, SiteId(1));
  directory.add_site(SiteId(1), &repository1);

  sim::SyntheticGraphParams params;
  params.family = static_cast<sim::GraphFamily>(seed % 5);
  params.size = 3 + seed % 4;
  params.width = 3;
  const auto graph = sim::make_synthetic_graph(params, rng);

  sched::SiteSchedulerConfig sched_config;
  sched_config.queue_aware = (seed % 2) == 0;
  sched::SiteScheduler scheduler(SiteId(0), directory, sched_config);
  const auto table = scheduler.schedule(graph);
  ASSERT_EQ(table.size(), graph.task_count());

  // QoS estimate is sane.
  const double estimate = sched::predicted_makespan(graph, table, directory);
  EXPECT_GT(estimate, 0.0);
  EXPECT_LT(estimate, 1e6);

  // Simulated execution invariants.
  sim::StaticSimulator simulator(testbed, repository.tasks());
  const auto result = simulator.run(graph, table, 5.0);
  ASSERT_EQ(result.records.size(), graph.task_count());
  for (const auto& link : graph.links()) {
    EXPECT_GE(result.record(link.to).start + 1e-9,
              result.record(link.from).finish);
  }
  for (const auto& a : result.records) {
    EXPECT_GE(a.start + 1e-12, a.data_ready);
    EXPECT_GT(a.exec_s, 0.0);
    for (const auto& b : result.records) {
      if (a.task == b.task || a.host != b.host) continue;
      EXPECT_TRUE(a.finish <= b.start + 1e-9 || b.finish <= a.start + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleSimProperty,
                         ::testing::Range(0, 10));

// ------------------------------------------------------ QoS estimator

/// Randomized invariants of the QoS admission math over seeded graphs:
/// the makespan estimate is monotone in the per-task predicted times
/// and in the committed host occupancy, never undercuts the
/// critical-path lower bound, and check_qos's slack sign always agrees
/// with its admitted flag.
class QosMathProperty : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    const int seed = GetParam();
    testbed_ = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(13 + seed));
    repository_ = std::make_unique<repo::SiteRepository>(SiteId(0));
    tasklib::builtin_registry().install_defaults(repository_->tasks());
    testbed_->populate_repository(*repository_, SiteId(0));
    directory_.add_site(SiteId(0), repository_.get());
  }

  std::unique_ptr<netsim::VirtualTestbed> testbed_;
  std::unique_ptr<repo::SiteRepository> repository_;
  sched::RepositoryDirectory directory_;
};

TEST_P(QosMathProperty, MakespanInvariants) {
  const int seed = GetParam();
  Rng rng(9000 + seed);
  sim::SyntheticGraphParams params;
  params.family = static_cast<sim::GraphFamily>(seed % 5);
  params.size = 3 + seed % 4;
  params.width = 3;
  const auto graph = sim::make_synthetic_graph(params, rng);

  sched::SiteSchedulerConfig config;
  config.queue_aware = (seed % 2) == 0;
  sched::SiteScheduler scheduler(SiteId(0), directory_, config);
  const auto table = scheduler.schedule(graph);

  const double base =
      sched::predicted_makespan(graph, table, directory_);
  ASSERT_GT(base, 0.0);

  // The empty-occupancy overload is exactly the plain estimator.
  EXPECT_DOUBLE_EQ(sched::predicted_makespan(graph, table, directory_,
                                             sched::HostOccupancy{}),
                   base);

  // Monotone in the per-task predicted times: scaling every prediction
  // up can only push the estimate up, scaling down only down.
  for (const double factor : {1.5, 3.0}) {
    auto scaled = table;
    for (auto row : table.rows()) {
      row.predicted_s *= factor;
      scaled.replace(row);
    }
    EXPECT_GE(sched::predicted_makespan(graph, scaled, directory_),
              base - 1e-12)
        << "factor " << factor;
  }
  {
    auto shrunk = table;
    for (auto row : table.rows()) {
      row.predicted_s *= 0.25;
      shrunk.replace(row);
    }
    EXPECT_LE(sched::predicted_makespan(graph, shrunk, directory_),
              base + 1e-12);
  }

  // Never below the critical-path lower bound under the allocation's
  // own predicted times (zero transfer, infinite hosts).
  const auto levels = afg::compute_levels(
      graph, [&table](const afg::TaskNode& node) {
        return table.entry(node.id).predicted_s;
      });
  EXPECT_GE(base + 1e-9, afg::critical_path_length(graph, levels));

  // Monotone in committed occupancy: busier hosts can only delay the
  // estimate, and more occupancy delays it at least as much.
  sched::HostOccupancy light, heavy;
  for (const HostId host : table.hosts_involved()) {
    const double committed = rng.uniform(0.0, 2.0 * base);
    light[host] = committed;
    heavy[host] = committed * rng.uniform(1.0, 3.0);
  }
  const double with_light =
      sched::predicted_makespan(graph, table, directory_, light);
  const double with_heavy =
      sched::predicted_makespan(graph, table, directory_, heavy);
  EXPECT_GE(with_light + 1e-12, base);
  EXPECT_GE(with_heavy + 1e-12, with_light);
}

TEST_P(QosMathProperty, SlackSignMatchesAdmission) {
  const int seed = GetParam();
  Rng rng(11000 + seed);
  sim::SyntheticGraphParams params;
  params.family = static_cast<sim::GraphFamily>((seed + 2) % 5);
  params.size = 3 + seed % 3;
  const auto graph = sim::make_synthetic_graph(params, rng);

  sched::SiteScheduler scheduler(SiteId(0), directory_);
  const auto table = scheduler.schedule(graph);
  const double base =
      sched::predicted_makespan(graph, table, directory_);

  sched::HostOccupancy busy;
  for (const HostId host : table.hosts_involved()) {
    if (rng.bernoulli(0.5)) busy[host] = rng.uniform(0.0, base);
  }

  for (int trial = 0; trial < 20; ++trial) {
    sched::QosRequirement qos;
    qos.deadline_s = rng.uniform(0.0, 3.0 * base);
    const auto plain =
        sched::check_qos(graph, table, directory_, qos);
    const auto residual =
        sched::check_qos(graph, table, directory_, qos, busy);
    for (const auto& admission : {plain, residual}) {
      EXPECT_EQ(admission.admitted, admission.slack_s >= 0.0);
      EXPECT_DOUBLE_EQ(
          admission.slack_s,
          qos.deadline_s - admission.predicted_makespan_s);
    }
    // Residual capacity never makes an estimate more optimistic, so a
    // residual admit implies a plain admit.
    EXPECT_GE(residual.predicted_makespan_s + 1e-12,
              plain.predicted_makespan_s);
    if (residual.admitted) {
      EXPECT_TRUE(plain.admitted);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QosMathProperty, ::testing::Range(0, 8));

// --------------------------------------------- ring channel laws (D16)

/// Encodes (producer, seq) into a pooled 16-byte frame.
dm::FrameView tagged_frame(std::uint64_t producer, std::uint64_t seq) {
  std::array<std::byte, 16> raw;
  std::memcpy(raw.data(), &producer, 8);
  std::memcpy(raw.data() + 8, &seq, 8);
  return dm::FramePool::global().copy_of(raw);
}

std::pair<std::uint64_t, std::uint64_t> decode_tag(const dm::FrameView& fv) {
  std::uint64_t producer = 0, seq = 0;
  std::memcpy(&producer, fv.data(), 8);
  std::memcpy(&seq, fv.data() + 8, 8);
  return {producer, seq};
}

/// The RingChannel contract under N racing pushers and M racing
/// poppers: every pushed frame pops exactly once (zero loss, no
/// duplication), each popper observes every pusher's frames in push
/// order (FIFO), occupancy never exceeds capacity, and once the ring
/// closes after the pushers finish, every popper sees a clean EOS.
class RingChannelProperty : public ::testing::TestWithParam<int> {};

TEST_P(RingChannelProperty, FifoZeroLossCleanEosUnderRace) {
  Rng rng(9100 + GetParam());
  const std::size_t capacity = 1 + rng.uniform_int(7);
  const std::size_t producers = 1 + rng.uniform_int(3);
  const std::size_t consumers = 1 + rng.uniform_int(3);
  const std::uint64_t per_producer = 100 + rng.uniform_int(200);

  dm::RingChannel ring(capacity);

  std::mutex mu;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> seen(
      consumers);
  std::atomic<std::size_t> clean_eos{0};
  std::vector<std::jthread> poppers;
  for (std::size_t c = 0; c < consumers; ++c) {
    poppers.emplace_back([&, c] {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> local;
      while (auto fv = ring.pop()) local.push_back(decode_tag(*fv));
      clean_eos.fetch_add(1);  // nullopt, not TransportError
      std::lock_guard lk(mu);
      seen[c] = std::move(local);
    });
  }
  {
    std::vector<std::jthread> pushers;
    for (std::size_t p = 0; p < producers; ++p) {
      pushers.emplace_back([&ring, p, per_producer] {
        for (std::uint64_t seq = 0; seq < per_producer; ++seq) {
          ring.push(tagged_frame(p, seq));
        }
      });
    }
  }  // join the pushers, then close once
  ring.close();
  poppers.clear();  // join the poppers

  // Clean EOS for every consumer, with the ring fully drained.
  EXPECT_EQ(clean_eos.load(), consumers);
  EXPECT_TRUE(ring.eos());
  EXPECT_EQ(ring.size(), 0u);

  // Zero loss, zero duplication: every (producer, seq) exactly once.
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> counts;
  for (const auto& v : seen) {
    for (const auto& tag : v) ++counts[tag];
  }
  EXPECT_EQ(counts.size(), producers * per_producer);
  for (const auto& [tag, n] : counts) {
    EXPECT_EQ(n, 1) << "frame (" << tag.first << ", " << tag.second
                    << ") seen " << n << " times";
  }

  // FIFO: within one consumer, each producer's frames arrive in push
  // order (global pop order respects commit order, so any subsequence
  // is ordered too).
  for (const auto& v : seen) {
    std::map<std::uint64_t, std::uint64_t> next_seq;
    for (const auto& [p, seq] : v) {
      auto it = next_seq.find(p);
      if (it != next_seq.end()) {
        EXPECT_GT(seq, it->second) << "producer " << p << " reordered";
      }
      next_seq[p] = seq;
    }
  }

  // Capacity is a hard bound and the counters balance.
  const dm::RingChannelStats stats = ring.stats();
  EXPECT_LE(stats.high_water, capacity);
  EXPECT_EQ(stats.frames_pushed, producers * per_producer);
  EXPECT_EQ(stats.frames_popped, producers * per_producer);
  EXPECT_EQ(stats.frames_dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingChannelProperty, ::testing::Range(0, 6));

/// Churn case for the TSan job: producers and consumers race a
/// mid-stream abort().  Whatever the interleaving, nothing is counted
/// twice (popped + dropped never exceeds pushed), FIFO holds for what
/// did pop, and every thread returns promptly via TransportError.
TEST(RingChannelChurn, AbortRacingProducersAndConsumers) {
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng(4400 + trial);
    dm::RingChannel ring(1 + rng.uniform_int(4));
    constexpr std::size_t kProducers = 2;
    constexpr std::size_t kConsumers = 2;

    std::mutex mu;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> popped;
    {
      std::vector<std::jthread> threads;
      for (std::size_t p = 0; p < kProducers; ++p) {
        threads.emplace_back([&ring, p] {
          try {
            for (std::uint64_t seq = 0;; ++seq) {
              ring.push(tagged_frame(p, seq));
            }
          } catch (const common::TransportError&) {
          }
        });
      }
      for (std::size_t c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
          std::vector<std::pair<std::uint64_t, std::uint64_t>> local;
          try {
            while (auto fv = ring.pop()) local.push_back(decode_tag(*fv));
          } catch (const common::TransportError&) {
          }
          std::lock_guard lk(mu);
          popped.insert(popped.end(), local.begin(), local.end());
        });
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.uniform_int(2000)));
      ring.abort();
    }

    const dm::RingChannelStats stats = ring.stats();
    EXPECT_TRUE(ring.aborted());
    EXPECT_LE(popped.size(), stats.frames_pushed);
    EXPECT_LE(stats.frames_popped + stats.frames_dropped,
              stats.frames_pushed);
    std::map<std::pair<std::uint64_t, std::uint64_t>, int> counts;
    for (const auto& tag : popped) ++counts[tag];
    for (const auto& [tag, n] : counts) EXPECT_EQ(n, 1);
  }
}

// ---------------------------------------- liveness directory laws (D17)

/// Silences the directory's per-transition log lines while a property
/// run drives thousands of transitions.
class QuietLogs {
 public:
  QuietLogs() : saved_(common::log_level()) {
    common::set_log_level(common::LogLevel::kError);
  }
  ~QuietLogs() { common::set_log_level(saved_); }
  QuietLogs(const QuietLogs&) = delete;
  QuietLogs& operator=(const QuietLogs&) = delete;

 private:
  common::LogLevel saved_;
};

/// Everything one site's state machine exposes.
auto site_view(const rt::LivenessDirectory& dir, SiteId site) {
  const rt::SiteLivenessStatus s = dir.status(site);
  return std::make_tuple(s.state, s.incarnation, s.witnesses,
                         s.suspect_since_s, s.reason);
}

/// The directory's counters, in kLivenessMetrics order.
std::vector<std::uint64_t> stats_vector(const rt::LivenessStats& s) {
  return {s.suspects,          s.refutations,
          s.deaths_quorum,     s.deaths_timeout,
          s.deaths_conclusive, s.false_alarm_recoveries,
          s.quarantines};
}

constexpr const char* kLivenessMetrics[] = {
    "liveness.suspects",          "liveness.refutations",
    "liveness.deaths_quorum",     "liveness.deaths_timeout",
    "liveness.deaths_conclusive", "liveness.false_alarm_recoveries",
    "liveness.quarantines"};

std::vector<std::uint64_t> liveness_metrics() {
  std::vector<std::uint64_t> out;
  for (const char* name : kLivenessMetrics) {
    out.push_back(common::MetricsRegistry::global().counter(name).value());
  }
  return out;
}

std::uint64_t deaths(const rt::LivenessStats& s) {
  return s.deaths_quorum + s.deaths_timeout + s.deaths_conclusive;
}

/// Every liveness.* metric moved by exactly the directory's own count
/// since `before`.
void expect_metrics_mirror(const std::vector<std::uint64_t>& before,
                           const rt::LivenessStats& stats) {
  const auto after = liveness_metrics();
  const auto counted = stats_vector(stats);
  for (std::size_t k = 0; k < counted.size(); ++k) {
    EXPECT_EQ(after[k] - before[k], counted[k]) << kLivenessMetrics[k];
  }
}

/// Random evidence schedules against one directory on a virtual clock:
/// votes, refutations, heartbeats and first-hand deaths about current,
/// stale and successor incarnations, relaunches, polls, clock ticks and
/// host flap reports, with every law checked after every step.
class LivenessDirectoryProperty : public ::testing::TestWithParam<int> {};

TEST_P(LivenessDirectoryProperty, RandomEvidenceKeepsTheLaws) {
  const QuietLogs quiet;
  const auto metrics_before = liveness_metrics();
  Rng rng(7300 + GetParam());
  rt::LivenessConfig config;
  config.quorum = 1 + static_cast<int>(rng.uniform_int(3));
  config.suspicion_timeout_s = rng.uniform(0.5, 1.5);
  config.flap_open_threshold =
      rng.uniform_int(4) == 0
          ? std::numeric_limits<double>::infinity()
          : 2.0 + static_cast<double>(rng.uniform_int(3));
  config.flap_close_threshold = rng.uniform_int(2) == 0 ? 0.5 : 1.0;
  config.flap_half_life_s = rng.uniform(1.0, 5.0);
  rt::LivenessDirectory dir(config);
  double now = 0.0;
  dir.set_clock([&now] { return now; });

  const std::vector<SiteId> sites = {SiteId(0), SiteId(1), SiteId(2)};
  const std::vector<HostId> hosts = {HostId(0), HostId(1), HostId(2),
                                     HostId(3)};
  for (const SiteId site : sites) dir.track(site, 1);

  enum Op {
    kTrack,
    kHeartbeat,
    kSuspect,
    kRefute,
    kConclusive,
    kPoll,
    kTick,
    kHostFailure
  };
  // Weighted: suspicion votes are the most common evidence.
  const auto pick_op = [&rng] {
    const std::uint64_t roll = rng.uniform_int(20);
    if (roll < 1) return kTrack;
    if (roll < 4) return kHeartbeat;
    if (roll < 9) return kSuspect;
    if (roll < 11) return kRefute;
    if (roll < 12) return kConclusive;
    if (roll < 14) return kPoll;
    if (roll < 17) return kTick;
    return kHostFailure;
  };

  std::set<std::pair<SiteId, std::uint32_t>> timeout_deaths;
  std::uint64_t into_dead = 0;
  std::uint64_t into_suspect = 0;
  std::uint64_t opened = 0;
  using rt::SiteLiveness;

  for (int step = 0; step < 4000; ++step) {
    const SiteId site = sites[rng.uniform_int(sites.size())];
    const std::uint32_t cur = dir.status(site).incarnation;
    std::uint32_t inc = cur;  // mostly the current incarnation,
    const std::uint64_t skew = rng.uniform_int(6);
    if (skew == 0) inc = cur - 1;  // sometimes a stale one,
    if (skew == 1) inc = cur + 1;  // sometimes its successor
    const SiteId witness(100 + static_cast<std::uint32_t>(rng.uniform_int(4)));
    const HostId host = hosts[rng.uniform_int(hosts.size())];
    const Op op = pick_op();

    std::vector<decltype(site_view(dir, site))> before;
    for (const SiteId s : sites) before.push_back(site_view(dir, s));
    const rt::LivenessStats stats_before = dir.stats();
    std::vector<bool> q_before;
    for (const HostId h : hosts) q_before.push_back(dir.quarantined(h));

    std::vector<SiteId> polled;
    bool opened_now = false;
    switch (op) {
      case kTrack:
        dir.track(site, cur + 1);  // a relaunch: a new subject
        break;
      case kHeartbeat:
        dir.direct_alive(site, inc);
        break;
      case kSuspect:
        (void)dir.suspect(site, inc, witness, "vote");
        break;
      case kRefute:
        (void)dir.refute(site, inc, witness);
        break;
      case kConclusive:
        (void)dir.conclusive_dead(site, inc, "exit");
        break;
      case kPoll:
        polled = dir.poll();
        break;
      case kTick:
        now += rng.uniform(0.0, config.suspicion_timeout_s);
        break;
      case kHostFailure:
        opened_now = dir.report_host_failure(host);
        break;
    }

    std::vector<decltype(site_view(dir, site))> after;
    for (const SiteId s : sites) after.push_back(site_view(dir, s));
    const rt::LivenessStats stats = dir.stats();

    // Evidence about another incarnation changes nothing: votes and
    // first-hand deaths about any other one, heartbeats and
    // refutations about a past one.  Host flap reports never touch a
    // site.
    const bool foreign =
        ((op == kSuspect || op == kConclusive) && inc != cur) ||
        ((op == kHeartbeat || op == kRefute) && inc < cur);
    if (foreign) {
      EXPECT_EQ(after, before);
      EXPECT_EQ(stats_vector(stats), stats_vector(stats_before));
    }
    if (op == kHostFailure) {
      EXPECT_EQ(after, before);
    }

    const bool reregisters =
        op == kTrack || ((op == kHeartbeat || op == kRefute) && inc > cur);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const SiteLiveness was = std::get<0>(before[i]);
      const SiteLiveness is = std::get<0>(after[i]);
      // kDead is final for its incarnation.
      if (was == SiteLiveness::kDead && !(reregisters && sites[i] == site)) {
        EXPECT_EQ(is, SiteLiveness::kDead);
        EXPECT_EQ(std::get<1>(after[i]), std::get<1>(before[i]));
      }
      if (was != SiteLiveness::kDead && is == SiteLiveness::kDead) {
        ++into_dead;
      }
      // With quorum 1 a first vote passes through suspect into dead.
      if (was == SiteLiveness::kAlive &&
          (is == SiteLiveness::kSuspect ||
           (is == SiteLiveness::kDead && op == kSuspect))) {
        ++into_suspect;
      }
    }

    // poll() reports each timeout death once, and changes nothing else.
    for (const SiteId dead : polled) {
      const std::size_t i = dead.value();
      EXPECT_EQ(std::get<0>(before[i]), SiteLiveness::kSuspect);
      EXPECT_EQ(std::get<0>(after[i]), SiteLiveness::kDead);
      EXPECT_TRUE(timeout_deaths.emplace(dead, std::get<1>(after[i])).second)
          << "site " << dead.value() << " reported dead twice";
    }
    if (op == kPoll) {
      for (std::size_t i = 0; i < sites.size(); ++i) {
        if (std::find(polled.begin(), polled.end(), sites[i]) ==
            polled.end()) {
          EXPECT_EQ(after[i], before[i]);
        }
      }
    }

    // Flap hysteresis: only a report opens a quarantine, nothing
    // releases one above the close threshold, and the read side agrees
    // with itself.
    std::vector<HostId> expected_quarantined;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      const bool q = dir.quarantined(hosts[h]);
      const double score = dir.flap_score(hosts[h]);
      if (q) {
        expected_quarantined.push_back(hosts[h]);
        EXPECT_GE(score, config.flap_close_threshold);
      }
      if (score >= config.flap_open_threshold) {
        EXPECT_TRUE(q);
      }
      if (op == kHostFailure && hosts[h] == host) {
        EXPECT_EQ(opened_now, !q_before[h] && q);
        if (q_before[h]) {
          EXPECT_TRUE(q) << "a report released a quarantine";
        } else {
          EXPECT_EQ(q, score >= config.flap_open_threshold);
        }
      } else {
        if (!q_before[h]) {
          EXPECT_FALSE(q) << "opened without a report";
        }
        if (q_before[h] && score >= config.flap_close_threshold) {
          EXPECT_TRUE(q) << "released above the close threshold";
        }
      }
    }
    EXPECT_EQ(dir.quarantined_hosts(), expected_quarantined);
    if (opened_now) ++opened;

    // Exact reconciliation of the counters with observed transitions.
    EXPECT_EQ(deaths(stats), into_dead);
    EXPECT_EQ(stats.suspects, into_suspect);
    EXPECT_EQ(stats.deaths_timeout, timeout_deaths.size());
    EXPECT_EQ(stats.quarantines, opened);
    if (HasFailure()) {
      ADD_FAILURE() << "seed " << GetParam() << " step " << step << " op "
                    << op << " site " << site.value() << " inc " << inc
                    << " (current " << cur << ")";
      return;
    }
  }
  // The schedule exercised the machine, and the metrics mirror it.
  EXPECT_GT(into_dead, 0u);
  EXPECT_GT(into_suspect, 0u);
  if (config.quorum > 1) {
    EXPECT_GT(timeout_deaths.size(), 0u);  // quorum 1 kills on first vote
  }
  expect_metrics_mirror(metrics_before, dir.stats());
}

TEST_P(LivenessDirectoryProperty, RefutedMinorityNeverKillsASite) {
  // Fewer than `quorum` distinct witnesses ever vote, and some witness
  // refutes inside every suspicion_timeout_s window: whatever the
  // interleaving of votes, refutations, heartbeats and polls, the site
  // never dies.
  const QuietLogs quiet;
  Rng rng(8300 + GetParam());
  rt::LivenessConfig config;
  config.quorum = 2 + static_cast<int>(rng.uniform_int(2));
  config.suspicion_timeout_s = rng.uniform(0.5, 1.5);
  rt::LivenessDirectory dir(config);
  double now = 0.0;
  dir.set_clock([&now] { return now; });
  const SiteId site(0);
  dir.track(site, 1);

  const std::uint64_t voters =
      1 + rng.uniform_int(static_cast<std::uint64_t>(config.quorum - 1));
  const auto any_witness = [&] {
    return SiteId(100 + static_cast<std::uint32_t>(rng.uniform_int(6)));
  };
  double last_refutation = 0.0;
  const auto refute = [&](SiteId witness) {
    (void)dir.refute(site, 1, witness);
    last_refutation = now;
  };
  for (int step = 0; step < 3000; ++step) {
    now += rng.uniform(0.0, config.suspicion_timeout_s / 4.0);
    if (now - last_refutation >= config.suspicion_timeout_s / 2.0) {
      refute(any_witness());
    }
    switch (rng.uniform_int(6)) {
      case 0:
      case 1:
      case 2:
        (void)dir.suspect(
            site, 1,
            SiteId(100 + static_cast<std::uint32_t>(rng.uniform_int(voters))),
            "minority vote");
        break;
      case 3:
        refute(any_witness());
        break;
      case 4:
        (void)dir.poll();
        break;
      default:
        if (rng.uniform_int(4) == 0) dir.direct_alive(site, 1);
        break;
    }
    ASSERT_NE(dir.state(site), rt::SiteLiveness::kDead)
        << "seed " << GetParam() << " step " << step;
  }
  EXPECT_EQ(deaths(dir.stats()), 0u);
  EXPECT_GT(dir.stats().suspects, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LivenessDirectoryProperty,
                         ::testing::Range(0, 12));

/// Concurrent variant (run under TSan): four evidence writers, a poller
/// that -- like the watchdog's verdict sweep -- re-tracks every site it
/// finds dead at a new incarnation, and a reader checking that no
/// verdict is ever revoked.  At the end every death is accounted for
/// exactly once and the metrics mirror the directory's counters.
TEST(LivenessDirectoryChurn, WritersPollerAndReaderReconcile) {
  const QuietLogs quiet;
  constexpr std::size_t kSites = 4;
  constexpr std::uint64_t kHosts = 4;
  for (int trial = 0; trial < 3; ++trial) {
    const auto metrics_before = liveness_metrics();
    rt::LivenessConfig config;
    config.quorum = 2;
    config.suspicion_timeout_s = 0.05;
    config.flap_open_threshold = 3.0;
    config.flap_half_life_s = 0.1;
    rt::LivenessDirectory dir(config);
    std::atomic<double> now{0.0};
    dir.set_clock([&now] { return now.load(); });
    // The current incarnation per site; only the poller moves it, and
    // only after re-tracking, so no writer ever sends evidence about an
    // incarnation the directory has not reached.
    std::array<std::atomic<std::uint32_t>, kSites> incarnation;
    for (std::size_t i = 0; i < kSites; ++i) {
      dir.track(SiteId(static_cast<std::uint32_t>(i)), 1);
      incarnation[i].store(1);
    }

    std::atomic<bool> writers_done{false};
    std::atomic<int> revoked{0};
    std::uint64_t observed_deaths = 0;  // poller-owned until joined
    std::uint64_t polled = 0;           // poller-owned until joined
    {
      std::jthread poller([&] {
        while (!writers_done.load()) {
          now.store(now.load() + 0.01);
          polled += dir.poll().size();
          for (std::size_t i = 0; i < kSites; ++i) {
            const SiteId site(static_cast<std::uint32_t>(i));
            if (dir.state(site) != rt::SiteLiveness::kDead) continue;
            ++observed_deaths;
            const std::uint32_t inc = incarnation[i].load();
            dir.track(site, inc + 1);
            incarnation[i].store(inc + 1);
          }
          std::this_thread::yield();
        }
      });
      std::jthread reader([&] {
        std::array<std::uint32_t, kSites> seen_inc{};
        std::array<bool, kSites> seen_dead{};
        rt::LivenessStats last;
        while (!writers_done.load()) {
          for (std::size_t i = 0; i < kSites; ++i) {
            const auto st = dir.status(SiteId(static_cast<std::uint32_t>(i)));
            const bool dead = st.state == rt::SiteLiveness::kDead;
            if (st.incarnation < seen_inc[i] ||
                (st.incarnation == seen_inc[i] && seen_dead[i] && !dead)) {
              revoked.fetch_add(1);
            }
            seen_inc[i] = st.incarnation;
            seen_dead[i] = dead;
          }
          const rt::LivenessStats stats = dir.stats();
          const auto was = stats_vector(last);
          const auto is = stats_vector(stats);
          for (std::size_t k = 0; k < is.size(); ++k) {
            if (is[k] < was[k]) revoked.fetch_add(1);
          }
          last = stats;
          for (const HostId h : dir.quarantined_hosts()) {
            if (h.value() >= kHosts) revoked.fetch_add(1);
          }
          std::this_thread::yield();
        }
      });
      {
        std::vector<std::jthread> writers;
        for (int w = 0; w < 4; ++w) {
          writers.emplace_back([&, w] {
            Rng rng(9900 + 10 * trial + w);
            const SiteId self(100 + static_cast<std::uint32_t>(w));
            for (int i = 0; i < 3000; ++i) {
              const std::size_t s = rng.uniform_int(kSites);
              const SiteId site(static_cast<std::uint32_t>(s));
              std::uint32_t inc = incarnation[s].load();
              if (rng.uniform_int(5) == 0) --inc;  // stale evidence
              switch (rng.uniform_int(8)) {
                case 0:
                  dir.direct_alive(site, inc);
                  break;
                case 1:
                case 2:
                case 3:
                  (void)dir.suspect(site, inc, self, "vote");
                  break;
                case 4:
                case 5:
                  (void)dir.refute(site, inc, self);
                  break;
                case 6:
                  if (rng.uniform_int(20) == 0) {
                    (void)dir.conclusive_dead(site, inc, "exit");
                  }
                  break;
                default:
                  (void)dir.report_host_failure(
                      HostId(static_cast<std::uint32_t>(
                          rng.uniform_int(kHosts))));
                  break;
              }
            }
          });
        }
      }  // joins the writers
      writers_done.store(true);
    }  // joins the poller and the reader

    const rt::LivenessStats stats = dir.stats();
    std::uint64_t dead_now = 0;
    for (std::size_t i = 0; i < kSites; ++i) {
      if (dir.state(SiteId(static_cast<std::uint32_t>(i))) ==
          rt::SiteLiveness::kDead) {
        ++dead_now;
      }
    }
    EXPECT_EQ(revoked.load(), 0) << "trial " << trial;
    EXPECT_GT(deaths(stats), 0u) << "trial " << trial;
    EXPECT_EQ(deaths(stats), observed_deaths + dead_now) << "trial " << trial;
    EXPECT_EQ(stats.deaths_timeout, polled) << "trial " << trial;
    expect_metrics_mirror(metrics_before, stats);
  }
}

}  // namespace
}  // namespace vdce
