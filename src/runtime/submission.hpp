// The Application Submission Service: VDCE as a *shared* environment.
//
// "At each site, the VDCE Server runs the server software, called site
//  manager, which manages the VDCE resources" (Section 2) -- for all
//  users at once.  The QoS framework of Section 2.2 admits
//  applications, plural; up to this point the runtime executed exactly
//  one AFG at a time.  This service is the multi-application front
//  door:
//
//    submit(AFG, deadline, user, weight, priority)
//      -> schedule (Figure 4, per-submission Site Scheduler; runs
//         OUTSIDE the service lock, so concurrent submitters overlap
//         their placement work)
//      -> residual-capacity QoS admission: the makespan estimate
//         charges the predicted host occupancy of every application
//         already admitted and not yet finished, so the same
//         host-seconds are never promised twice; submit_batch admits
//         an entire arrival burst under one lock acquisition, each
//         member against the occupancy its predecessors left
//      -> load-shedding tiers (DESIGN.md D15):
//           1. reject-with-slack (QoS miss) and bounded-queue
//              backpressure;
//           2. priority preemption: a full queue evicts the youngest
//              QUEUED submission of the lowest priority tier strictly
//              below the newcomer's (running apps are never touched);
//           3. shed_queued(): bulk-drop queued work below a priority
//              cutoff (the operator's pressure valve).
//      -> stride fair-share ready queue (rt::FairShareQueue): O(log n)
//         grant picks keyed on pass value with FIFO seq tie-break, pass
//         renormalization and idle-share eviction, ordered by the
//         service lock
//      -> execution on a pool of engine slots; each running app gets
//         its own ExecutionEngine keyed by its AppId ticket (per-app
//         broker, per-app seeds, per-app FaultTolerance hooks)
//      -> recovery inside the engine's rounds only (DESIGN.md D12): the
//         service's reschedule hook re-places one task at a time onto
//         a usable host, replaces its allocation row and re-admits the
//         app through residual-capacity QoS against current occupancy
//      -> submission.* metrics, spans carrying app= arguments; terminal
//         records retire into compact stubs so millions of submissions
//         do not grow the record map without bound.
//
// Determinism contract (the concurrency tests lean on it): admission
// decisions and grant order are serialised under one lock, per-app
// outputs depend only on (graph, seed, app id) -- never on what else
// is running -- and a paused service queues every admitted submission
// so tests fix the queue contents before releasing the workers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "predict/forecaster.hpp"
#include "runtime/engine.hpp"
#include "runtime/fair_share.hpp"
#include "runtime/liveness.hpp"
#include "scheduler/qos.hpp"
#include "scheduler/site_scheduler.hpp"

namespace vdce::rt {

/// One application submission: the AFG plus the user's QoS contract.
struct SubmissionRequest {
  afg::FlowGraph graph;
  sched::QosRequirement qos;
  /// Submitting user (fair-share accounting key).
  std::string user = "anonymous";
  /// Fair-share weight (> 0): a user with weight 2 receives execution
  /// grants twice as often as a user with weight 1 under contention.
  double weight = 1.0;
  /// Admission priority tier from the user-accounts repository (paper
  /// Section 2.1's per-user records): a submission arriving at a full
  /// queue preempts the youngest QUEUED submission of the lowest tier
  /// strictly below its own; shed_queued() drops queued work below a
  /// cutoff.  Priority never reorders grants among queued work -- the
  /// stride race stays weight-driven -- it only decides who survives
  /// load shedding.
  int priority = 0;
  /// Engine seed for this application; together with the assigned app
  /// id it fixes every task's RNG stream, so a completed app's outputs
  /// can be reproduced by replaying (graph, seed, app id) alone.
  std::uint64_t seed = 1;
};

/// Lifecycle of one submission.
enum class SubmissionState : std::uint8_t {
  kQueued,     // admitted, waiting for an execution slot
  kRunning,    // granted a slot, executing
  kCompleted,  // finished successfully
  kRejected,   // refused at admission, preempted, or shed
  kFailed,     // admitted but execution ultimately failed
};

[[nodiscard]] const char* to_string(SubmissionState state);

/// Point-in-time view of one submission (wait() returns the terminal
/// snapshot).
struct SubmissionStatus {
  common::AppId app;
  SubmissionState state = SubmissionState::kQueued;
  std::string user;
  /// The admission decision (residual-capacity estimate and slack).
  /// For backpressure rejections admitted is true but the queue was
  /// full -- `error` distinguishes the two.
  sched::QosAdmission admission;
  /// Queue-with-ETA backpressure signal: estimated seconds until this
  /// submission is granted a slot (0 when it ran immediately).
  double queue_eta_s = 0.0;
  /// The app's allocation: the admitted plan, with every re-placement
  /// the engine made while running it.
  sched::AllocationTable allocation;
  /// Execution grant order (1 = first grant; 0 = never granted).  The
  /// fair-share tests assert on this.
  std::size_t grant_index = 0;
  /// kCompleted only.
  RunResult result;
  /// kRejected / kFailed reason.
  std::string error;
  /// True when the full record has been retired into a compact stub
  /// (allocation/result/error no longer held; see terminal_record_cap).
  bool retired = false;
};

/// Service-local counters (mirrored into the global MetricsRegistry as
/// submission.*).  Reconciliation invariants after drain():
///   submitted == admitted + rejected + queued
///   queued    == queued_then_admitted + preempted + shed
///   admitted + queued_then_admitted == completed + failed
struct SubmissionStats {
  std::uint64_t submitted = 0;
  /// Admitted with a free slot: ran without queueing.
  std::uint64_t admitted = 0;
  /// Refused at admission: QoS slack < 0, backpressure, or scheduling
  /// failure.
  std::uint64_t rejected = 0;
  /// Admitted but queued behind busy slots.
  std::uint64_t queued = 0;
  /// Queued submissions later granted a slot.
  std::uint64_t queued_then_admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Queued submissions evicted by a higher-priority arrival (shedding
  /// tier 2).
  std::uint64_t preempted = 0;
  /// Queued submissions dropped by shed_queued() (shedding tier 3).
  std::uint64_t shed = 0;
  /// Terminal records compacted into stubs (memory reclamation).
  std::uint64_t retired = 0;
  std::size_t running = 0;
  std::size_t queue_depth = 0;
  /// Full records currently held (bounded by terminal_record_cap plus
  /// live submissions).
  std::size_t records_retained = 0;
};

/// Tunables of the submission service.
struct AppSubmissionConfig {
  /// Concurrent execution slots (worker threads running engines).
  std::size_t slots = 4;
  /// Bounded ready queue: an admitted submission arriving when this
  /// many are already waiting is rejected (backpressure) unless its
  /// priority preempts a queued lower tier.
  std::size_t max_queue = 16;
  /// Start with grants paused: admitted submissions queue until
  /// resume() -- the deterministic-test hook.
  bool start_paused = false;
  /// Terminal (completed/failed/rejected) records beyond this many are
  /// retired: the heavy record (graph, allocation, outputs) is dropped
  /// and a compact stub keeps state/grant_index for status().
  /// 0 = retain everything (the pre-D15 behaviour).
  std::size_t terminal_record_cap = 65536;
  /// Retired stubs beyond this many are forgotten entirely (status()
  /// then throws NotFoundError).  0 = retain all stubs.
  std::size_t retired_stub_cap = 1 << 20;
  /// Per-submission Site Scheduler configuration.
  sched::SiteSchedulerConfig scheduler;
  /// Engine configuration template; `engine.seed` is overridden by
  /// each submission's own seed.  Its max_attempts and retry_backoff_s
  /// are the only recovery budget and backoff (DESIGN.md D12).
  EngineConfig engine;
};

/// Builds the per-application FaultTolerance hook set for one admitted
/// run; both references stay valid for the run's duration (the
/// allocation is the record's, kept current by every re-placement).
/// The service wraps what the factory returns: it supplies `reschedule`
/// (a Site Scheduler over the app's allocation) when the factory leaves
/// it empty, and wraps the factory's own otherwise.  Empty factory = no
/// fault tolerance (failures are fatal for that app only).
using FaultHookFactory = std::function<FaultTolerance(
    const afg::FlowGraph& graph, const sched::AllocationTable& allocation)>;

/// Concurrent multi-application admission and execution front door.
class AppSubmissionService {
 public:
  /// `directory` and `registry` must outlive the service.
  AppSubmissionService(SiteId local_site, sched::SiteDirectory& directory,
                       const tasklib::TaskRegistry& registry,
                       AppSubmissionConfig config = {});

  /// Drains the ready queue (shutdown still executes admitted work),
  /// then joins the slot workers.
  ~AppSubmissionService();

  AppSubmissionService(const AppSubmissionService&) = delete;
  AppSubmissionService& operator=(const AppSubmissionService&) = delete;

  /// Optional wiring, set before the first submit(): every added
  /// forecaster forgets a host whose report_host_failure opened a
  /// quarantine.
  void add_forecaster(predict::LoadForecaster* forecaster);
  /// Per-app fault-tolerance hook factory.
  void set_fault_hooks(FaultHookFactory factory) {
    fault_hooks_ = std::move(factory);
  }
  /// The liveness judge (DESIGN.md D17); in daemon deployments the
  /// watchdog's directory.  `liveness` must outlive the service.  With
  /// one attached, reported host failures feed its flap policy, and a
  /// host it quarantined or whose site it holds dead reads dead to the
  /// engine's guard and recovery and is skipped by re-placements.
  /// Unset = only the factory's host_alive judges a host.
  void set_liveness(LivenessDirectory* liveness) { liveness_ = liveness; }
  /// One host failure, as the wrapped on_failure hook reports it: feeds
  /// the attached directory's flap policy and, when that opened a
  /// quarantine, calls forget(host) on every forecaster.  Returns
  /// whether a quarantine opened (never without a directory).
  bool report_host_failure(common::HostId host);

  /// Schedules + admits one application; thread-safe.  Placement runs
  /// outside the service lock, admission bookkeeping inside it; the
  /// call never waits for execution.  Returns the submission's AppId
  /// ticket; poll status() or block in wait() for the outcome.
  common::AppId submit(SubmissionRequest request);

  /// Batched admission for an arrival burst: every graph is validated
  /// up front (an invalid graph throws before any submission is
  /// recorded), every placement runs outside the lock, and the whole
  /// burst is admitted under ONE lock acquisition, each member against
  /// the occupancy the members before it charged -- identical to
  /// calling submit() in a loop, minus per-submission lock churn.
  std::vector<common::AppId> submit_batch(
      std::vector<SubmissionRequest> requests);

  /// Blocks until the submission reaches a terminal state and returns
  /// that snapshot.  Throws NotFoundError for an unknown ticket.
  [[nodiscard]] SubmissionStatus wait(common::AppId app) const;

  /// Non-blocking snapshot.  Throws NotFoundError for an unknown
  /// ticket.
  [[nodiscard]] SubmissionStatus status(common::AppId app) const;

  /// Releases grants on a paused service.
  void resume();

  /// Pauses grants: queued submissions hold until resume().  Running
  /// applications are unaffected.
  void pause();

  /// Shedding tier 3: drops every queued submission with priority
  /// strictly below `below_priority` (their state becomes kRejected
  /// with a "shed" error; charges and ETAs are released).  Running
  /// applications are never touched.  Returns how many were dropped.
  std::size_t shed_queued(
      int below_priority = std::numeric_limits<int>::max());

  /// Blocks until no submission is queued or running.
  void drain() const;

  [[nodiscard]] SubmissionStats stats() const;
  [[nodiscard]] const AppSubmissionConfig& config() const { return config_; }

 private:
  struct AppRecord;
  /// Compact remnant of a retired terminal record.
  struct RetiredStub {
    SubmissionState state = SubmissionState::kCompleted;
    std::uint32_t grant_index = 0;
  };

  void worker_loop();
  /// The one usability predicate: false when the attached directory
  /// quarantined `host` or holds `site` dead (a suspect site keeps its
  /// placements), or when `probe` reads the host dead.  mu_ must NOT be
  /// held.
  [[nodiscard]] bool usable(common::HostId host,
                            std::optional<common::SiteId> site,
                            const std::function<bool(common::HostId)>& probe)
      const;
  /// Wraps factory-produced hooks for `rec`'s run: reschedule widens
  /// past unusable hosts, then moves the allocation row and re-admits
  /// through residual-capacity QoS; with a directory attached,
  /// on_failure feeds its flap policy and host_alive becomes usable().
  [[nodiscard]] FaultTolerance wrap_hooks(AppRecord& rec,
                                          FaultTolerance hooks);
  /// Registers/releases an app's occupancy and pending-prediction (ETA)
  /// charge; mu_ must be held.
  void charge_locked(AppRecord& record);
  void release_locked(AppRecord& record);
  /// Marks a queued victim rejected (preempted or shed), releases its
  /// charges and notes it terminal; mu_ must be held.
  void evict_queued_locked(const std::shared_ptr<AppRecord>& record,
                           std::string reason,
                           std::uint64_t SubmissionStats::*count,
                           common::Counter& metric);
  /// Every terminal path's last step: wakes the record's waiters, then
  /// retires the oldest terminal records beyond terminal_record_cap
  /// into compact stubs; mu_ must be held.
  void note_terminal_locked(const std::shared_ptr<AppRecord>& record);
  [[nodiscard]] SubmissionStatus snapshot_locked(const AppRecord& rec) const;
  /// The stub of a retired ticket; throws NotFoundError for an unknown
  /// one.  mu_ must be held.
  [[nodiscard]] SubmissionStatus retired_snapshot_locked(
      common::AppId app) const;

  SiteId local_site_;
  sched::SiteDirectory* directory_;
  const tasklib::TaskRegistry* registry_;
  AppSubmissionConfig config_;
  std::vector<predict::LoadForecaster*> forecasters_;
  FaultHookFactory fault_hooks_;
  LivenessDirectory* liveness_ = nullptr;
  mutable std::mutex mu_;
  /// drain()'s: notified when the queue and the running count both
  /// reach zero.  Waiters of one app sleep on its record instead.
  mutable std::condition_variable cv_;
  /// The slot workers': notified when work is queued, on resume() and
  /// at shutdown.
  std::condition_variable work_cv_;
  bool paused_ = false;
  bool shutdown_ = false;
  std::uint32_t next_ticket_ = 1;
  std::uint64_t next_seq_ = 1;
  std::size_t next_grant_ = 1;
  std::size_t running_ = 0;
  /// Stride ready queue of every queued submission; guarded by mu_.
  FairShareQueue queue_;
  /// Sum of predicted makespans over queued + running submissions:
  /// the queue-with-ETA estimate reads this instead of walking every
  /// record (the pre-D15 O(all-records) loop).
  double pending_pred_s_ = 0.0;
  std::map<common::AppId, std::shared_ptr<AppRecord>> records_;
  /// Terminal records in retirement order, plus the compacted stubs.
  std::deque<common::AppId> terminal_fifo_;
  std::unordered_map<common::AppId, RetiredStub> retired_;
  std::deque<common::AppId> retired_fifo_;
  sched::HostOccupancy occupancy_;
  SubmissionStats stats_;
  std::vector<std::jthread> workers_;
};

}  // namespace vdce::rt
