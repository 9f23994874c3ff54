// Chaos and failover tests (DESIGN.md D12): the CheckpointStore, the
// liveness directory's host flap policy, the ChaosSchedule fault harness,
// and failover through the AppSubmissionService's wrapped engine hooks --
// including the acceptance property that a run killed mid-flight
// finishes on surviving resources, re-executes zero completed tasks, and
// produces output bit-identical to a fault-free run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "netsim/chaos.hpp"
#include "netsim/testbed.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/liveness.hpp"
#include "runtime/submission.hpp"
#include "scheduler/qos.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {
namespace {

using common::AppId;
using common::HostId;
using common::SiteId;
using common::TaskId;

std::uint64_t counter_value(const char* name) {
  return common::MetricsRegistry::global().counter(name).value();
}

// ------------------------------------------------------ CheckpointStore

TEST(CheckpointStore, CapturesAndReplays) {
  CheckpointStore store;
  const AppId app(1);
  const tasklib::Payload out = tasklib::Payload::of_scalar(42.0);

  EXPECT_FALSE(store.replay(app, TaskId(0)).has_value());
  store.record(app, TaskId(0), 1, HostId(3), out);

  const auto entry = store.replay(app, TaskId(0));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->attempt, 1);
  EXPECT_EQ(entry->host, HostId(3));
  EXPECT_EQ(entry->frame.to_vector(), out.to_wire());

  EXPECT_FALSE(store.replay(app, TaskId(9)).has_value());
  EXPECT_FALSE(store.replay(AppId(2), TaskId(0)).has_value());

  const auto stats = store.stats();
  EXPECT_EQ(stats.tasks_captured, 1u);
  EXPECT_EQ(stats.frames_replayed, 1u);  // misses count nothing
  EXPECT_EQ(stats.bytes_captured, out.to_wire().size());
}

TEST(CheckpointStore, RecordIsIdempotentPerAttempt) {
  CheckpointStore store;
  const AppId app(1);
  const auto a = tasklib::Payload::of_scalar(1.0);
  const auto b = tasklib::Payload::of_vector({1.0, 2.0, 3.0});

  store.record(app, TaskId(0), 1, HostId(1), a);
  store.record(app, TaskId(0), 1, HostId(2), b);  // same attempt: kept
  EXPECT_EQ(store.replay(app, TaskId(0))->host, HostId(1));

  store.record(app, TaskId(0), 3, HostId(5), b);  // higher: replaces
  const auto entry = store.replay(app, TaskId(0));
  EXPECT_EQ(entry->attempt, 3);
  EXPECT_EQ(entry->host, HostId(5));
  EXPECT_EQ(entry->frame.to_vector(), b.to_wire());

  store.record(app, TaskId(0), 2, HostId(9), a);  // lower: ignored
  EXPECT_EQ(store.replay(app, TaskId(0))->attempt, 3);

  const auto stats = store.stats();
  EXPECT_EQ(stats.tasks_captured, 1u);
  EXPECT_EQ(stats.tasks_replaced, 1u);
  EXPECT_EQ(stats.bytes_captured, b.to_wire().size());
}

TEST(CheckpointStore, ReplayBitIdenticalAfterSlabRecycled) {
  // D13 regression: the store holds a refcounted VIEW of the pooled
  // frame, not a copy.  The view must pin its slab, so pool churn in the
  // same size class after the originating Frame is gone cannot corrupt
  // the captured bytes.
  CheckpointStore store;
  auto& pool = dm::FramePool::global();
  const AppId app(7);

  std::vector<std::byte> wire;
  wire.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    wire.push_back(static_cast<std::byte>((i * 31) & 0xFF));
  }
  store.record(app, TaskId(1), 1, HostId(2), pool.copy_of(wire));

  // Churn the captured frame's size class hard; every one of these
  // slabs is allocated, scribbled over, and recycled.
  for (int i = 0; i < 256; ++i) {
    dm::Frame f = pool.allocate(wire.size());
    std::fill_n(f.data(), f.size(), std::byte{0xAA});
  }

  const auto entry = store.replay(app, TaskId(1));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->frame.to_vector(), wire);
}

// ------------------------------------- LivenessDirectory host flap policy

TEST(LivenessFlapPolicy, OpensOnFailureRateAndDecaysClosed) {
  LivenessConfig config;
  config.flap_open_threshold = 3.0;
  config.flap_close_threshold = 1.0;
  config.flap_half_life_s = 10.0;
  LivenessDirectory liveness(config);

  double now = 0.0;
  liveness.set_clock([&now] { return now; });

  const HostId flappy(4);
  EXPECT_FALSE(liveness.report_host_failure(flappy));
  EXPECT_FALSE(liveness.report_host_failure(flappy));
  EXPECT_FALSE(liveness.quarantined(flappy));
  EXPECT_TRUE(liveness.report_host_failure(flappy));  // 3rd: opens
  EXPECT_TRUE(liveness.quarantined(flappy));
  EXPECT_EQ(liveness.stats().quarantines, 1u);
  EXPECT_EQ(liveness.quarantined_hosts(), std::vector<HostId>{flappy});

  // Other hosts are unaffected.
  EXPECT_FALSE(liveness.quarantined(HostId(5)));
  EXPECT_EQ(liveness.flap_score(HostId(5)), 0.0);

  // Two half-lives later the score decays 3 -> 0.75 < close threshold:
  // the quarantine lifts (hysteresis: it opened at 3, closes below 1).
  now = 20.0;
  EXPECT_FALSE(liveness.quarantined(flappy));
  EXPECT_NEAR(liveness.flap_score(flappy), 0.75, 1e-9);

  // Re-opening requires climbing back over the open threshold.
  EXPECT_FALSE(liveness.report_host_failure(flappy));
  EXPECT_FALSE(liveness.report_host_failure(flappy));
  EXPECT_TRUE(liveness.report_host_failure(flappy));
  EXPECT_EQ(liveness.stats().quarantines, 2u);
}

TEST(LivenessFlapPolicy, DefaultConfigNeverQuarantines) {
  LivenessDirectory liveness;  // flap_open_threshold = +inf
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(liveness.report_host_failure(HostId(1)));
  }
  EXPECT_FALSE(liveness.quarantined(HostId(1)));
  EXPECT_TRUE(liveness.quarantined_hosts().empty());
  EXPECT_EQ(liveness.stats().quarantines, 0u);
}

// --------------------------------------------------------- ChaosSchedule

TEST(ChaosSchedule, GenerationIsDeterministicAndScalesWithIntensity) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));

  netsim::ChaosScheduleConfig config;
  config.seed = 99;
  config.intensity = 1.0;
  const auto a = netsim::ChaosSchedule::generate(bed, config);
  const auto b = netsim::ChaosSchedule::generate(bed, config);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].start, b.events()[i].start);
    EXPECT_EQ(a.events()[i].length, b.events()[i].length);
    EXPECT_EQ(a.events()[i].host, b.events()[i].host);
    EXPECT_EQ(a.events()[i].site, b.events()[i].site);
  }
  EXPECT_EQ(a.count(netsim::ChaosEventKind::kHostCrash),
            static_cast<std::size_t>(config.max_crashes));
  EXPECT_EQ(a.count(netsim::ChaosEventKind::kSiteOutage),
            static_cast<std::size_t>(config.max_site_outages));

  config.intensity = 0.0;
  EXPECT_TRUE(netsim::ChaosSchedule::generate(bed, config).events().empty());

  config.intensity = 1.0;
  config.seed = 100;
  const auto c = netsim::ChaosSchedule::generate(bed, config);
  bool differs = c.events().size() != a.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].start != c.events()[i].start ||
              a.events()[i].host != c.events()[i].host;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical schedules";
}

TEST(ChaosSchedule, ProtectedSitesAreNeverTargeted) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));
  netsim::ChaosScheduleConfig config;
  config.seed = 7;
  config.intensity = 1.0;
  config.protected_sites = {SiteId(0)};
  const auto schedule = netsim::ChaosSchedule::generate(bed, config);
  for (const auto& event : schedule.events()) {
    switch (event.kind) {
      case netsim::ChaosEventKind::kHostCrash:
      case netsim::ChaosEventKind::kGrayHost:
      case netsim::ChaosEventKind::kDeadlineStorm:
        EXPECT_NE(bed.site_of(event.host), SiteId(0));
        break;
      case netsim::ChaosEventKind::kSiteOutage:
      case netsim::ChaosEventKind::kDaemonKill:
        EXPECT_NE(event.site, SiteId(0));
        break;
      case netsim::ChaosEventKind::kPartition:
        break;  // partitions may involve any site (links, not hosts)
    }
  }
}

TEST(ChaosSchedule, AppliedEventsDriveTestbedTruth) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));
  netsim::ChaosSchedule schedule;

  // Whole-site outage during [10, 20).
  netsim::ChaosEvent outage;
  outage.kind = netsim::ChaosEventKind::kSiteOutage;
  outage.site = SiteId(1);
  outage.start = 10.0;
  outage.length = 10.0;
  schedule.add(outage);

  // Deadline storm on one host of site 0: 2 pulses over [30, 40).
  const HostId stormy = bed.hosts_in_site(SiteId(0)).front();
  netsim::ChaosEvent storm;
  storm.kind = netsim::ChaosEventKind::kDeadlineStorm;
  storm.host = stormy;
  storm.start = 30.0;
  storm.length = 10.0;
  storm.pulses = 2;
  schedule.add(storm);

  schedule.apply(bed);

  for (const HostId host : bed.hosts_in_site(SiteId(1))) {
    EXPECT_TRUE(bed.is_alive(host, 9.9));
    EXPECT_FALSE(bed.is_alive(host, 15.0));
    EXPECT_TRUE(bed.is_alive(host, 20.1));
  }
  // Pulse layout: dead [30, 32.5), alive [32.5, 35), dead [35, 37.5).
  EXPECT_FALSE(bed.is_alive(stormy, 31.0));
  EXPECT_TRUE(bed.is_alive(stormy, 33.0));
  EXPECT_FALSE(bed.is_alive(stormy, 36.0));
  EXPECT_TRUE(bed.is_alive(stormy, 38.0));
}

TEST(ChaosSchedule, PartitionSplitsObserversWithoutKillingHosts) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));
  netsim::ChaosSchedule schedule;
  netsim::ChaosEvent split;
  split.kind = netsim::ChaosEventKind::kPartition;
  split.site = SiteId(0);
  split.other_site = SiteId(1);
  split.start = 5.0;
  split.length = 10.0;
  schedule.add(split);
  schedule.apply(bed);  // installs nothing: partitions are probe-level

  const HostId far = bed.hosts_in_site(SiteId(1)).front();
  const HostId near = bed.hosts_in_site(SiteId(0)).front();

  // Inside the window: site 0 observers cannot see site 1, both sides
  // stay truly alive, and a site-1 observer still sees its own host.
  EXPECT_TRUE(bed.is_alive(far, 10.0));
  EXPECT_FALSE(schedule.reachable(bed, SiteId(0), far, 10.0));
  EXPECT_TRUE(schedule.reachable(bed, SiteId(0), near, 10.0));
  EXPECT_TRUE(schedule.reachable(bed, SiteId(1), far, 10.0));
  EXPECT_TRUE(schedule.partitioned(SiteId(0), SiteId(1), 10.0));
  EXPECT_TRUE(schedule.partitioned(SiteId(1), SiteId(0), 10.0));

  // Outside the window everything heals.
  EXPECT_TRUE(schedule.reachable(bed, SiteId(0), far, 16.0));
  EXPECT_FALSE(schedule.partitioned(SiteId(0), SiteId(1), 16.0));

  // The probe binds the observer site and the testbed live clock.
  bed.set_live_time(10.0);
  const auto probe = schedule.liveness_probe(bed, SiteId(0));
  EXPECT_FALSE(probe(far));
  EXPECT_TRUE(probe(near));
  bed.set_live_time(16.0);
  EXPECT_TRUE(probe(far));
}

TEST(ChaosSchedule, GrayHostCarriesInjectedLoad) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));
  const HostId gray = bed.hosts_in_site(SiteId(0)).front();
  netsim::ChaosSchedule schedule;
  netsim::ChaosEvent event;
  event.kind = netsim::ChaosEventKind::kGrayHost;
  event.host = gray;
  event.start = 10.0;
  event.length = 5.0;
  event.extra_load = 6.0;
  schedule.add(event);
  schedule.apply(bed);

  EXPECT_TRUE(bed.is_alive(gray, 12.0));  // answers pings...
  EXPECT_GE(bed.true_load(gray, 12.0), 6.0);  // ...but is buried in load
  EXPECT_LT(bed.true_load(gray, 20.0), 6.0);  // recovers after the window
}

// ------------------------------------------- site-level failover (D12)

/// Shared state of the `chaos_trip` library task: the first
/// `remaining_trips` invocations run `on_trip` (e.g. "kill my site")
/// and throw; later invocations compute a deterministic output.
struct TripState {
  std::atomic<int> remaining_trips{0};
  std::atomic<int> invocations{0};
  std::function<void()> on_trip;
};

/// The builtin library plus `chaos_trip`: passes its inputs through a
/// deterministic checksum -- except that the first N invocations fail
/// after firing a side effect, which is how the tests inject an
/// engine-fatal failure at an exact dataflow position.
tasklib::TaskRegistry trip_registry(std::shared_ptr<TripState> state) {
  tasklib::TaskRegistry registry;
  for (const auto& name : tasklib::builtin_registry().all_tasks()) {
    registry.add(tasklib::builtin_registry().get(name));
  }
  tasklib::LibraryEntry entry;
  entry.name = "chaos_trip";
  entry.menu = "synthetic";
  entry.description = "fails its first N invocations";
  entry.min_inputs = 0;
  entry.max_inputs = 8;
  entry.default_perf.task_name = "chaos_trip";
  entry.default_perf.base_time_s = 0.01;
  entry.default_perf.computation_size = 0.1;
  entry.default_perf.communication_size_mb = 0.001;
  entry.default_perf.memory_req_mb = 0.01;
  entry.fn = [state](const std::vector<tasklib::Payload>& in,
                     const tasklib::TaskContext& ctx) {
    state->invocations.fetch_add(1);
    if (state->remaining_trips.fetch_sub(1) > 0) {
      if (state->on_trip) state->on_trip();
      throw common::StateError("chaos_trip: injected failure");
    }
    state->remaining_trips.fetch_add(1);  // undo the decrement below 0
    double acc = ctx.rng->uniform();
    for (const tasklib::Payload& p : in) {
      acc += static_cast<double>(p.size_bytes() % 1009);
    }
    return tasklib::Payload::of_scalar(acc);
  };
  registry.add(std::move(entry));
  return registry;
}

/// Full multi-site wiring (FaultEnv shape) with a submission service
/// whose engine recovers failures in rounds.
class FailoverEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    state_ = std::make_shared<TripState>();
    registry_ = trip_registry(state_);
    testbed_ = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(13));
    for (const SiteId site : testbed_->sites()) {
      auto repository = std::make_unique<repo::SiteRepository>(site);
      registry_.install_defaults(repository->tasks());
      testbed_->populate_repository(*repository, site);
      auto forecaster = std::make_unique<predict::LoadForecaster>();
      directory_.add_site(site, repository.get(), forecaster.get());
      repositories_.push_back(std::move(repository));
      forecasters_.push_back(std::move(forecaster));
    }
  }

  /// A service whose engine gets `max_attempts` attempts per task.  The
  /// factory supplies only the testbed health probe, so the service
  /// fills in the reschedule hook: re-placement over usable hosts and
  /// QoS re-admission.  A failed round re-runs only unfinished stages.
  [[nodiscard]] std::unique_ptr<AppSubmissionService> make_service(
      int max_attempts, bool paused = false) {
    AppSubmissionConfig config;
    config.slots = 1;
    config.start_paused = paused;
    config.engine.max_attempts = max_attempts;
    config.engine.recv_timeout_s = 5.0;
    auto service = std::make_unique<AppSubmissionService>(
        SiteId(0), directory_, registry_, config);
    service->set_fault_hooks(
        [this](const afg::FlowGraph&, const sched::AllocationTable&) {
          FaultTolerance ft;
          ft.host_alive = testbed_->liveness_probe();
          ft.sleep = [](double) {};  // virtual: retries cost no wall-clock
          return ft;
        });
    return service;
  }

  [[nodiscard]] static afg::FlowGraph trip_pipeline() {
    afg::FlowGraph g("trip-pipeline");
    const auto a = g.add_task("synth_source", "a");
    const auto b = g.add_task("synth_compute", "b");
    const auto c = g.add_task("chaos_trip", "c");
    const auto d = g.add_task("synth_sink", "d");
    g.add_link(a, b, 0.05);
    g.add_link(b, c, 0.05);
    g.add_link(c, d, 0.05);
    return g;
  }

  [[nodiscard]] static SubmissionRequest request_for(afg::FlowGraph graph,
                                                     std::uint64_t seed) {
    SubmissionRequest request;
    request.graph = std::move(graph);
    request.qos.deadline_s = 1e9;
    request.user = "chaos";
    request.seed = seed;
    return request;
  }

  [[nodiscard]] static TaskId task_c_of(
      const sched::AllocationTable& allocation) {
    for (const auto& row : allocation.rows()) {
      if (row.library_task == "chaos_trip") return row.task;
    }
    return TaskId{};
  }

  [[nodiscard]] static const TaskRunRecord& record_of(const RunResult& result,
                                                      TaskId task) {
    for (const TaskRunRecord& record : result.records) {
      if (record.task == task) return record;
    }
    throw common::NotFoundError("no run record for task");
  }

  /// Fault-free outputs of trip_pipeline under `seed` (a fresh service,
  /// so the ticket -- and with it every task RNG -- matches the next
  /// fresh service's first submission).
  [[nodiscard]] std::map<TaskId, std::vector<std::byte>> reference_outputs(
      std::uint64_t seed) {
    std::map<TaskId, std::vector<std::byte>> reference;
    state_->remaining_trips.store(0);
    auto service = make_service(/*max_attempts=*/1);
    const auto status =
        service->wait(service->submit(request_for(trip_pipeline(), seed)));
    EXPECT_EQ(status.state, SubmissionState::kCompleted) << status.error;
    for (const auto& [task, payload] : status.result.outputs) {
      reference[task] = payload.to_wire();
    }
    return reference;
  }

  /// The service's books balance (SubmissionStats reconciliation).
  static void expect_reconciled(const SubmissionStats& stats) {
    EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected + stats.queued);
    EXPECT_EQ(stats.queued,
              stats.queued_then_admitted + stats.preempted + stats.shed);
    EXPECT_EQ(stats.completed + stats.failed,
              stats.admitted + stats.queued_then_admitted);
  }

  std::shared_ptr<TripState> state_;
  tasklib::TaskRegistry registry_;
  std::unique_ptr<netsim::VirtualTestbed> testbed_;
  std::vector<std::unique_ptr<repo::SiteRepository>> repositories_;
  std::vector<std::unique_ptr<predict::LoadForecaster>> forecasters_;
  sched::RepositoryDirectory directory_;
};

TEST_F(FailoverEnv, SiteOutageFailoverResumesFromCheckpoint) {
  // THE acceptance scenario: a seeded "chaos" event kills the entire
  // site hosting task c mid-run.  The admitted app must finish on
  // surviving sites from the outputs its first round kept, re-execute
  // zero completed tasks, and produce output bit-identical to a
  // fault-free run.
  const std::uint64_t kSeed = 1234;
  const auto reference = reference_outputs(kSeed);

  const auto retries_before = counter_value("engine.retries");
  const auto reschedules_before = counter_value("engine.reschedules");

  // Chaos run: start paused so the allocation is known before the trip
  // is armed with "kill the site that hosts c".  Two attempts: the death
  // costs c and d one each, whether d's guard ran before or after it.
  state_->remaining_trips.store(1);
  state_->invocations.store(0);  // don't count the reference run
  auto service = make_service(/*max_attempts=*/2, /*paused=*/true);
  const AppId app = service->submit(request_for(trip_pipeline(), kSeed));

  const auto queued = service->status(app);
  ASSERT_TRUE(queued.admission.admitted) << queued.error;
  const TaskId task_c = task_c_of(queued.allocation);
  const SiteId doomed = queued.allocation.entry(task_c).site;
  const HostId doomed_host = queued.allocation.entry(task_c).primary_host();

  // Install the outage windows now, while the service is paused and no
  // engine thread reads the testbed (fail_host is not locked); the trip
  // itself only flips the atomic live clock into the outage window.
  netsim::ChaosSchedule chaos;
  netsim::ChaosEvent outage;
  outage.kind = netsim::ChaosEventKind::kSiteOutage;
  outage.site = doomed;
  outage.start = 100.0;
  outage.length = 1e6;
  chaos.add(outage);
  chaos.apply(*testbed_);
  state_->on_trip = [this] { testbed_->set_live_time(200.0); };
  service->resume();

  const auto final_status = service->wait(app);
  ASSERT_EQ(final_status.state, SubmissionState::kCompleted)
      << final_status.error;

  // c and d were unfinished when the site died: their last attempts ran
  // on surviving resources, and the status shows every move.
  ASSERT_EQ(final_status.result.records.size(), 4u);
  std::uint64_t retries = 0;
  for (const auto& record : final_status.result.records) {
    EXPECT_EQ(record.host,
              final_status.allocation.entry(record.task).primary_host());
    retries += static_cast<std::uint64_t>(record.attempts - 1);
    if (record.task == task_c || record.label == "d") {
      EXPECT_EQ(record.attempts, 2) << record.label;
      EXPECT_NE(testbed_->site_of(record.host), doomed)
          << "task " << record.label << " re-ran on the dead site";
      EXPECT_TRUE(testbed_->is_alive_now(record.host));
    } else {
      EXPECT_EQ(record.attempts, 1) << record.label << " re-executed";
    }
  }
  EXPECT_NE(final_status.allocation.entry(task_c).primary_host(),
            doomed_host);

  // Zero re-execution: the trip task ran trips + 1 times and a/b once;
  // c and d were the recovered failures, and at least c moved.
  EXPECT_EQ(state_->invocations.load(), 2);
  EXPECT_EQ(final_status.result.failures_recovered, 2u);
  EXPECT_GE(final_status.result.reschedules, 1u);
  EXPECT_EQ(counter_value("engine.retries") - retries_before, retries);
  EXPECT_EQ(counter_value("engine.reschedules") - reschedules_before,
            final_status.result.reschedules);

  // Bit-identical to the fault-free run.
  ASSERT_EQ(final_status.result.outputs.size(), reference.size());
  for (const auto& [task, payload] : final_status.result.outputs) {
    EXPECT_EQ(payload.to_wire(), reference.at(task))
        << "task " << task.value() << " output diverged";
  }
}

TEST_F(FailoverEnv, RestartBudgetExhaustionFailsTheSubmission) {
  // More trips than attempts: the engine gives up and the submission
  // lands in kFailed with an error naming the task.
  state_->remaining_trips.store(10);
  state_->invocations.store(0);
  auto service = make_service(/*max_attempts=*/3);
  const AppId app = service->submit(request_for(trip_pipeline(), 77));
  const auto status = service->wait(app);
  EXPECT_EQ(status.state, SubmissionState::kFailed);
  EXPECT_NE(status.error.find("task c"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("chaos_trip"), std::string::npos)
      << status.error;
  EXPECT_EQ(state_->invocations.load(), 3);  // one per attempt

  const auto stats = service->stats();
  EXPECT_EQ(stats.failed, 1u);
  expect_reconciled(stats);
}

TEST_F(FailoverEnv, FailoverDisabledPreservesSeedBehaviour) {
  // max_attempts = 1: a failed task fails the submission on the spot,
  // exactly as before recovery existed.
  state_->remaining_trips.store(1);
  state_->invocations.store(0);
  auto service = make_service(/*max_attempts=*/1);
  const AppId app = service->submit(request_for(trip_pipeline(), 5));
  const auto status = service->wait(app);
  EXPECT_EQ(status.state, SubmissionState::kFailed);
  EXPECT_EQ(state_->invocations.load(), 1);
}

// --------------------------- bit-identity property (seeds x schedules)

TEST_F(FailoverEnv, CheckpointReplayBitIdenticalAcrossSeedsAndSchedules) {
  // Property: for every (seed, fault schedule), the recovered run's
  // outputs are bit-identical to the uninterrupted run's, finished
  // tasks never re-run, and the engine.* / submission.* counters
  // reconcile exactly.
  const std::uint64_t seeds[] = {1, 7, 42};
  // Fault schedules: how many consecutive invocations of the trip task
  // fail (1 = one mid-run failure, 2 = the recovery round is killed
  // again and a third round finishes it).
  const int schedules[] = {1, 2};

  for (const std::uint64_t seed : seeds) {
    const auto reference = reference_outputs(seed);

    for (const int trips : schedules) {
      const auto retries_before = counter_value("engine.retries");
      const auto reschedules_before = counter_value("engine.reschedules");
      const auto submitted_before = counter_value("submission.submitted");
      const auto completed_before = counter_value("submission.completed");

      state_->remaining_trips.store(trips);
      state_->invocations.store(0);
      auto service = make_service(/*max_attempts=*/4);
      const auto status =
          service->wait(service->submit(request_for(trip_pipeline(), seed)));
      ASSERT_EQ(status.state, SubmissionState::kCompleted)
          << "seed " << seed << " trips " << trips << ": " << status.error;

      for (const auto& [task, payload] : status.result.outputs) {
        EXPECT_EQ(payload.to_wire(), reference.at(task))
            << "seed " << seed << " trips " << trips << " task "
            << task.value();
      }

      // Exact reconciliation: no host died, so c retried in place once
      // per trip, and d's re-runs were collateral and free; a and b ran
      // once (zero re-execution), and c ran trips + 1 times.
      const TaskId task_c = task_c_of(status.allocation);
      for (const auto& record : status.result.records) {
        EXPECT_EQ(record.attempts, record.task == task_c ? trips + 1 : 1)
            << "seed " << seed << " trips " << trips << " task "
            << record.label;
      }
      EXPECT_EQ(state_->invocations.load(), trips + 1);
      EXPECT_EQ(status.result.failures_recovered, 1u);
      EXPECT_EQ(status.result.reschedules, 0u);
      EXPECT_EQ(counter_value("engine.retries") - retries_before,
                static_cast<std::uint64_t>(trips));
      EXPECT_EQ(counter_value("engine.reschedules") - reschedules_before,
                0u);
      EXPECT_EQ(counter_value("submission.submitted") - submitted_before,
                1u);
      EXPECT_EQ(counter_value("submission.completed") - completed_before,
                1u);
      expect_reconciled(service->stats());
    }
  }
}

// -------------------------------------- the QoS re-check on re-placement

TEST_F(FailoverEnv, RefusedReadmissionFailsWithTheQosReasonAndReleasesCharges) {
  // The deadline equals the admitted plan's own estimate, so no slower
  // plan meets it.  When c's whole site dies, the only re-placements
  // leave the site and cost WAN transfers: the QoS re-check must refuse
  // them, the submission must fail with that reason, and its charges
  // must be released.
  const std::uint64_t kSeed = 99;
  sched::QosAdmission planned;
  {
    auto probe = make_service(/*max_attempts=*/1);
    planned =
        probe->wait(probe->submit(request_for(trip_pipeline(), kSeed)))
            .admission;
    ASSERT_TRUE(planned.admitted);
  }
  auto tight = [&] {
    SubmissionRequest request = request_for(trip_pipeline(), kSeed);
    request.qos.deadline_s = planned.predicted_makespan_s;
    return request;
  };

  state_->remaining_trips.store(1);
  // Every stage's guard asks the probe once before its first frame.
  // c's trip waits for all four: a guard of d's that ran after the
  // outage began would strand d on the dead site, and the round would
  // then fail on d instead of c.
  std::atomic<int> guards{0};
  auto service = make_service(/*max_attempts=*/3, /*paused=*/true);
  service->set_fault_hooks(
      [this, &guards](const afg::FlowGraph&, const sched::AllocationTable&) {
        FaultTolerance ft;
        const auto probe = testbed_->liveness_probe();
        ft.host_alive = [probe, &guards](HostId host) {
          guards.fetch_add(1);
          return probe(host);
        };
        ft.sleep = [](double) {};
        return ft;
      });
  const AppId app = service->submit(tight());
  const auto queued = service->status(app);
  ASSERT_TRUE(queued.admission.admitted) << queued.error;
  const TaskId task_c = task_c_of(queued.allocation);
  const SiteId doomed = queued.allocation.entry(task_c).site;
  const HostId doomed_host = queued.allocation.entry(task_c).primary_host();
  netsim::ChaosSchedule chaos;
  netsim::ChaosEvent outage;
  outage.kind = netsim::ChaosEventKind::kSiteOutage;
  outage.site = doomed;
  outage.start = 100.0;
  outage.length = 1e6;
  chaos.add(outage);
  chaos.apply(*testbed_);
  state_->on_trip = [this, &guards] {
    while (guards.load() < 4) std::this_thread::yield();
    testbed_->set_live_time(200.0);
  };
  service->resume();

  const auto failed = service->wait(app);
  ASSERT_EQ(failed.state, SubmissionState::kFailed);
  EXPECT_NE(failed.error.find("QoS re-admission refused on re-placing task c"),
            std::string::npos)
      << failed.error;
  // A refusal moves nothing.
  EXPECT_EQ(failed.allocation.entry(task_c).primary_host(), doomed_host);

  // Released: the same plan is admitted again with the same estimate,
  // so no residual occupancy of the failed app is charged against it.
  service->pause();
  const AppId next = service->submit(tight());
  const auto again = service->status(next);
  EXPECT_TRUE(again.admission.admitted) << again.error;
  EXPECT_EQ(again.admission.predicted_makespan_s,
            planned.predicted_makespan_s);
  EXPECT_EQ(service->shed_queued(), 1u);
  const auto stats = service->stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.shed, 1u);
  expect_reconciled(stats);
}

// ------------------------------------------- host flap policy x service

TEST_F(FailoverEnv, BreakerTripBumpsStatsAndInvalidatesPredictions) {
  double now = 0.0;
  LivenessConfig liveness_config;
  liveness_config.flap_open_threshold = 3.0;
  LivenessDirectory liveness(liveness_config);
  liveness.set_clock([&now] { return now; });
  AppSubmissionConfig config;
  AppSubmissionService service(SiteId(0), directory_, registry_, config);
  service.set_liveness(&liveness);
  for (auto& forecaster : forecasters_) {
    service.add_forecaster(forecaster.get());
  }

  const HostId flappy = testbed_->all_hosts().front();
  const auto version_before = forecasters_.front()->version();
  const auto trips_before = counter_value("liveness.quarantines");

  service.report_host_failure(flappy);
  service.report_host_failure(flappy);
  EXPECT_EQ(liveness.stats().quarantines, 0u);
  service.report_host_failure(flappy);  // opens

  EXPECT_TRUE(liveness.quarantined(flappy));
  EXPECT_EQ(liveness.stats().quarantines, 1u);
  EXPECT_EQ(counter_value("liveness.quarantines") - trips_before, 1u);
  // The open transition version-bumped the forecaster (forget(host)),
  // so prediction-cache entries computed before the flap are stale.
  EXPECT_GT(forecasters_.front()->version(), version_before);
}

TEST_F(FailoverEnv, QuarantinedHostIsExcludedByWrappedLiveness) {
  // The service wraps factory hooks so a quarantined host reads dead
  // even when the raw probe says alive: the engine's fault guard and
  // recovery then steer around the flapping machine.
  LivenessConfig liveness_config;
  liveness_config.flap_open_threshold = 1.0;   // first failure quarantines
  liveness_config.flap_close_threshold = 0.1;  // ...and it stays open a while
  LivenessDirectory liveness(liveness_config);
  AppSubmissionConfig config;
  config.engine.max_attempts = 2;  // a guard refusal costs an attempt
  AppSubmissionService service(SiteId(0), directory_, registry_, config);
  service.set_liveness(&liveness);
  service.set_fault_hooks(
      [this](const afg::FlowGraph&, const sched::AllocationTable&) {
        FaultTolerance ft;
        ft.host_alive = testbed_->liveness_probe();
        ft.sleep = [](double) {};
        return ft;
      });

  const HostId flappy = testbed_->all_hosts().front();
  service.report_host_failure(flappy);
  ASSERT_TRUE(liveness.quarantined(flappy));

  // A healthy app run completes while steering clear of the
  // quarantined host (host_alive reads false for it pre-compute).
  state_->remaining_trips.store(0);
  SubmissionRequest request;
  request.graph = trip_pipeline();
  request.qos.deadline_s = 1e9;
  request.seed = 3;
  const auto status = service.wait(service.submit(std::move(request)));
  ASSERT_EQ(status.state, SubmissionState::kCompleted) << status.error;
  for (const auto& record : status.result.records) {
    EXPECT_NE(record.host, flappy);
  }
}

TEST_F(FailoverEnv, FactoryReschedulerIsWrappedNotReplaced) {
  // A factory that brings its own reschedule (perfbench's shape) keeps
  // it: the service wraps it.  Its first answer is a host on a site the
  // directory holds dead; the widening must skip that host, ask again,
  // and the move must show in both the status and the run record.
  LivenessDirectory liveness;
  liveness.set_clock([] { return 0.0; });  // nothing polls: no timeouts
  for (const SiteId site : testbed_->sites()) liveness.track(site, 1);

  AppSubmissionConfig config;
  config.slots = 1;
  config.start_paused = true;
  config.engine.max_attempts = 2;
  config.engine.recv_timeout_s = 5.0;
  AppSubmissionService service(SiteId(0), directory_, registry_, config);
  service.set_liveness(&liveness);

  std::atomic<int> calls{0};
  std::atomic<int> decoys{0};
  HostId victim;     // set before resume(): dead to the factory's probe
  HostId decoy;      // on the dead site
  SiteId dead_site;
  service.set_fault_hooks([&](const afg::FlowGraph& graph,
                              const sched::AllocationTable& allocation) {
    FaultTolerance ft;
    ft.host_alive = [&victim](HostId host) { return host != victim; };
    ft.sleep = [](double) {};
    ft.reschedule = [&](
                        const afg::TaskNode& node,
                        const std::vector<HostId>& excluded)
        -> std::optional<sched::AllocationEntry> {
      if (calls.fetch_add(1) == 0) {
        ++decoys;
        sched::AllocationEntry entry = allocation.entry(node.id);
        entry.hosts = {decoy};
        entry.site = dead_site;
        return entry;
      }
      return sched::SiteScheduler(SiteId(0), directory_)
          .reschedule(graph, allocation, node.id, excluded);
    };
    return ft;
  });

  state_->remaining_trips.store(0);
  const AppId app = service.submit(request_for(trip_pipeline(), 31));
  const auto queued = service.status(app);
  ASSERT_TRUE(queued.admission.admitted) << queued.error;
  const TaskId task_c = task_c_of(queued.allocation);
  victim = queued.allocation.entry(task_c).primary_host();
  const SiteId c_site = queued.allocation.entry(task_c).site;
  for (const SiteId site : testbed_->sites()) {
    if (site != c_site) dead_site = site;
  }
  decoy = testbed_->hosts_in_site(dead_site).front();
  (void)liveness.conclusive_dead(dead_site, 1, "test verdict");
  service.resume();

  const auto status = service.wait(app);
  ASSERT_EQ(status.state, SubmissionState::kCompleted) << status.error;
  EXPECT_EQ(decoys.load(), 1);
  EXPECT_GE(calls.load(), 2);  // the decoy was skipped, then asked again
  for (const auto& record : status.result.records) {
    EXPECT_EQ(record.host, status.allocation.entry(record.task).primary_host())
        << record.label;
    EXPECT_NE(record.host, victim) << record.label;
    EXPECT_NE(record.host, decoy) << record.label;
    EXPECT_NE(testbed_->site_of(record.host), dead_site) << record.label;
  }
  EXPECT_NE(record_of(status.result, task_c).host, victim);
  EXPECT_GE(status.result.reschedules, 1u);
}

// ------------------------------- failover reads the liveness verdict

TEST_F(FailoverEnv, OnlyADeadSiteVerdictMovesTasksOffTheSite) {
  // No outage window exists, so the testbed probe reads every host
  // alive: the hand-driven directory's site verdict is the only thing
  // that can move task c.  A suspect site keeps its placements; a dead
  // one does not.  A guard refusal costs an attempt, so the dead-site
  // app needs 3: the refusal, the trip, the retry.
  LivenessDirectory liveness;  // quorum 2
  liveness.set_clock([] { return 0.0; });  // nothing polls: no timeouts
  for (const SiteId site : testbed_->sites()) liveness.track(site, 1);
  auto service = make_service(/*max_attempts=*/3, /*paused=*/true);
  service->set_liveness(&liveness);

  // 1 of 2 votes: c trips, and the retry keeps c's host.
  state_->remaining_trips.store(1);
  const AppId first = service->submit(request_for(trip_pipeline(), 11));
  const auto queued = service->status(first);
  ASSERT_TRUE(queued.admission.admitted) << queued.error;
  const TaskId task_c = task_c_of(queued.allocation);
  const SiteId doomed = queued.allocation.entry(task_c).site;
  const HostId doomed_host = queued.allocation.entry(task_c).primary_host();
  state_->on_trip = [&liveness, doomed] {
    (void)liveness.suspect(doomed, 1, SiteId(100), "one witness");
  };
  service->resume();
  const auto kept = service->wait(first);
  ASSERT_EQ(kept.state, SubmissionState::kCompleted) << kept.error;
  EXPECT_EQ(record_of(kept.result, task_c).attempts, 2);
  EXPECT_EQ(kept.result.reschedules, 0u);
  EXPECT_EQ(kept.allocation.entry(task_c).primary_host(), doomed_host);
  EXPECT_EQ(record_of(kept.result, task_c).host, doomed_host);
  EXPECT_EQ(liveness.state(doomed), SiteLiveness::kSuspect);
  EXPECT_EQ(liveness.status(doomed).witnesses, 1u);

  // The directory now holds the site dead: the next tripped app moves
  // c (and anything else unfinished there) to another site.
  (void)liveness.conclusive_dead(doomed, 1, "test verdict");
  service->pause();
  state_->on_trip = nullptr;
  state_->remaining_trips.store(1);
  const AppId second = service->submit(request_for(trip_pipeline(), 12));
  const auto placed = service->status(second);
  ASSERT_EQ(task_c_of(placed.allocation), task_c);
  ASSERT_EQ(placed.allocation.entry(task_c).site, doomed)
      << "placement no longer puts c on the doomed site; the case is moot";
  service->resume();
  const auto moved = service->wait(second);
  ASSERT_EQ(moved.state, SubmissionState::kCompleted) << moved.error;
  EXPECT_GE(moved.result.reschedules, 1u);
  EXPECT_NE(moved.allocation.entry(task_c).site, doomed);
  for (const auto& record : moved.result.records) {
    EXPECT_EQ(record.host, moved.allocation.entry(record.task).primary_host());
    EXPECT_NE(testbed_->site_of(record.host), doomed)
        << "task " << record.label << " ran on the dead site";
  }
}

}  // namespace
}  // namespace vdce::rt
