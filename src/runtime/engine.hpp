// The real-threaded execution engine: Figure 7 end-to-end.
//
// One stage runner executes every AFG, batch or stream (DESIGN.md D9).
// In every round each unfinished task owns one stage thread, the
// stand-in for its assigned machine: a thread of the process-wide
// common::ParkedThreadPool, already running like the paper's per-host
// daemons and parked again when the round is joined.  The stage thread
// is its task's Application Controller, and its only runtime object is
// the task's Data Manager.  Each stage goes through the full Figure 7
// lifecycle:
//
//   1. the engine (as Site Manager / Group Manager) delivers the
//      execution request to each task;
//   2. on the engine's own thread, each task's Data Manager sets up its
//      communication channels through the broker; no open waits for
//      its link's other end, and `setup` returning is the task's
//      acknowledgment;
//   3. when every acknowledgment has arrived the engine hands the
//      round's jobs to the parked pool in one hand-over, sources and
//      restore feeders first: that hand-over is the execution startup
//      signal, and each stage thread takes its Data Manager set up;
//   4. each stage loops over frames from its resume point: the
//      controller's fault and load guards on the stage's current host,
//      one receive per parent in port order, the compute, one send per
//      child, over the configured transport (in-process bounded rings,
//      or real TCP loopback sockets) and message-passing library
//      facade.  A batch run is frame 0 only; a stream
//      (StreamingEngine) runs until its sources finish;
//   5. measured execution times flow back into the task-performance
//      database via the Site Manager.
//
// Fault tolerance (Section 2.3's "monitors the resources for possible
// failures"): when a FaultTolerance hook set is supplied, a failed or
// guard-refused task is not fatal.  The engine plays the Control
// Manager: it reports the failure, asks the Site Scheduler for a
// replacement placement with the failed host excluded, and re-runs the
// task.  A refusal before a stage's first frame of a round is re-placed
// in place; any other failure ends the round, and the next round re-runs
// only unfinished stages -- finished outputs are fed back in, streams
// resume from the lowest durable sink window.  What each failure costs
// and where the stage runs next is one pure decision (recovery.hpp):
// the cause is charged an attempt, a stage another stage's failure took
// down re-runs for free, and refused stages and stages on dead hosts
// move.  max_attempts bounds each stage's charged attempts, retries back
// off exponentially, and receive timeouts keep a dead peer from hanging
// a stage forever.  These rounds are the only recovery: the submission
// service never re-runs execute(), it supplies the hooks (DESIGN.md
// D12).
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "afg/graph.hpp"
#include "datamgr/broker.hpp"
#include "datamgr/mplib.hpp"
#include "datamgr/services.hpp"
#include "runtime/messages.hpp"
#include "runtime/site_manager.hpp"
#include "scheduler/allocation.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {

/// Timing/traffic record of one executed task.
struct TaskRunRecord {
  TaskId task;
  std::string label;
  std::string library_task;
  /// The host that finally ran the task (the replacement after a
  /// recovery, not the originally allocated machine).
  HostId host;
  /// Wall-clock seconds from the startup signal to task completion
  /// (includes waiting for inputs, and for recovered tasks every failed
  /// attempt plus backoff before the one that succeeded).
  Duration turnaround_s = 0.0;
  /// Compute-phase seconds only: the task function, not the wait for
  /// inputs.
  Duration compute_s = 0.0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  /// Charged attempts (1 = no failure of its own): a re-run another
  /// stage's failure forced is free (recovery.hpp).
  int attempts = 1;
};

/// Result of one application run.
struct RunResult {
  common::AppId app;
  /// Output payload of every task (keyed by task id); exit-task entries
  /// are the application's results.
  std::map<TaskId, tasklib::Payload> outputs;
  std::vector<TaskRunRecord> records;
  /// Wall-clock seconds from the startup signal to the last completion.
  Duration makespan_s = 0.0;
  /// Tasks charged at least one failed attempt that still completed.
  std::size_t failures_recovered = 0;
  /// Successful re-placements (task moved to a different machine).
  std::size_t reschedules = 0;
};

/// Cap on the CUMULATIVE backoff slept for one task across all of its
/// retries (in-place and between rounds), seconds.  An in-place retry
/// sleeps on the task's stage thread, which stalls peers blocked on its
/// channels -- the cap bounds that stall however the backoff schedule
/// is configured.
inline constexpr double kMaxTotalBackoffS = 2.0;

/// Engine configuration.
struct EngineConfig {
  dm::TransportKind transport = dm::TransportKind::kInProcess;
  dm::MpLibrary library = dm::MpLibrary::kP4;
  /// Seed for per-task deterministic RNGs.
  std::uint64_t seed = 1;
  /// Fault-tolerance budget per task: charged attempts, first run
  /// included (recovery.hpp).  Only consulted when execute() is given
  /// hooks.
  int max_attempts = 3;
  /// Sleep before the first retry, seconds; doubles per retry, with
  /// a +-25% jitter drawn from (engine seed, app, task, attempt) --
  /// never from global state -- so a replay with the same seed is
  /// bit-identical through recovery.
  double retry_backoff_s = 0.01;
  /// Data Manager receive timeout armed when fault tolerance is on, so
  /// a dead peer cannot hang a stage thread.  <= 0 blocks forever in
  /// the first round; recovery rounds cap it at 30 s.
  double recv_timeout_s = 60.0;
  /// Load-guard threshold applied to every task when the hooks provide
  /// a host_load probe (infinity = guard disabled).
  double load_threshold = std::numeric_limits<double>::infinity();
};

/// The Control Manager's hooks into the live execution path.  All
/// callables may be invoked concurrently from stage threads and must
/// be thread-safe.  Any member may be empty; `reschedule` empty turns
/// recovery off (failures become fatal as without hooks).
struct FaultTolerance {
  /// Asks the Site Scheduler for a replacement placement of one task
  /// with the given hosts excluded (SiteScheduler::reschedule).
  /// Returns std::nullopt when no feasible host remains.
  using Rescheduler = std::function<std::optional<sched::AllocationEntry>(
      const afg::TaskNode&, const std::vector<HostId>&)>;

  Rescheduler reschedule;
  /// Liveness probe (testbed fault windows or Group-Manager belief).
  /// The stage runner's fault guard calls it on the stage's current
  /// host once per stage per frame, before that frame's receives, and
  /// on every failed stage's host after a failed round.
  std::function<bool(HostId)> host_alive;
  /// Load probe backing the pre-compute load guard, called on the
  /// stage's current host after the fault guard passes, when
  /// load_threshold is finite.
  std::function<double(HostId)> host_load;
  /// Failure notification, fired once per charged attempt before the
  /// re-placement is requested (wire to
  /// ControlManager::report_task_failure so the repository learns the
  /// host is down).
  std::function<void(const RescheduleRequest&)> on_failure;
  /// Retry-backoff sleep hook.  Empty = real wall-clock sleep
  /// (std::this_thread::sleep_for).  Tests and simulations install a
  /// virtual sleep so retries cost no wall-clock: an in-place retry
  /// sleeping for real stalls every peer blocked on the task's
  /// channels.  Called with the (kMaxTotalBackoffS-clamped) seconds to
  /// sleep; may be invoked concurrently from stage threads.
  std::function<void(double)> sleep;
};

/// Executes scheduled applications with real threads and channels.
class ExecutionEngine {
 public:
  /// `registry` must outlive the engine.
  explicit ExecutionEngine(const tasklib::TaskRegistry& registry,
                           EngineConfig config = {});

  /// Runs `graph` per `allocation`.  When `feedback` is given, measured
  /// compute times are stored into its task-performance database.
  /// `console`, when given, is honoured by every task's compute phase.
  /// When `ft` is given, failed or refused tasks are re-placed and
  /// retried per the config's retry budget before giving up.  Throws
  /// StateError (with the failing task named) if any task ultimately
  /// fails; all other tasks are unblocked and joined first.
  ///
  /// Re-entrant: concurrent execute() calls on one engine are safe --
  /// every run owns its broker and Data Managers, each of its rounds holds
  /// a pool thread per stage until it is joined, and app-id assignment
  /// is atomic.  `app`, when valid, names the run
  /// explicitly (the submission service keys runs by its own tickets,
  /// and a replay with the same app id reproduces the same per-task
  /// RNG seeds); when invalid an id is drawn from the engine's counter.
  [[nodiscard]] RunResult execute(const afg::FlowGraph& graph,
                                  const sched::AllocationTable& allocation,
                                  SiteManager* feedback = nullptr,
                                  dm::ConsoleService* console = nullptr,
                                  const FaultTolerance* ft = nullptr,
                                  common::AppId app = {});

 private:
  const tasklib::TaskRegistry* registry_;
  EngineConfig config_;
  /// Atomic: concurrent execute() calls must never share an app id
  /// (broker link keys and per-task seeds are derived from it).
  std::atomic<std::uint32_t> next_app_{1};
};

}  // namespace vdce::rt
