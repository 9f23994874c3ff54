// The Application Controller.
//
// "After the Application Controller receives an execution request
//  message from the Group Manager, it activates the Data Manager. ...
//  After the Application Executor receives the acknowledgment from Data
//  Manager for the communication channel setup, it forwards the
//  acknowledgment to the Site Manager.  When all the required
//  acknowledgments are received an execution startup signal is sent to
//  start the application execution. ...  If the current load on any of
//  these machines is more than a predefined threshold value, the
//  Application Controller terminates the task execution on the machine
//  and sends a task rescheduling request to the Group Manager."
//  (Sections 2.3.1, Figure 7)
//
// One ApplicationController instance manages one task execution on one
// (virtual) machine inside the real-threaded execution engine.
#pragma once

#include <functional>
#include <optional>

#include "datamgr/data_manager.hpp"
#include "runtime/messages.hpp"

namespace vdce::rt {

/// Load probe: the controller's view of its machine's current load
/// (bound to the testbed in tests/benches; absent in pure functional
/// runs).
using LoadProbe = std::function<double()>;

/// Liveness probe: whether a given host is currently answering (bound
/// to the testbed's fault-injection windows or the Group Managers'
/// believed-alive view).
using AliveProbe = std::function<bool(HostId)>;

/// Outcome of one controlled task execution.
struct TaskOutcome {
  bool completed = false;
  /// Set instead of `payload` when the controller refused the task
  /// pre-compute: load-threshold violation (kLoadThreshold) or the
  /// fault guard reporting this host dead (kHostFailure).  On the
  /// refusal path io_stats reflects whatever channel setup already
  /// happened, and the Data Manager channels are still open — the
  /// caller owns teardown (the engine's retry loop reuses or rebinds
  /// them; anyone else must call shutdown()).
  std::optional<RescheduleRequest> reschedule;
  /// Set instead of `payload` when the task's first input was at end of
  /// stream: the frame never ran (the stream is over).
  bool end_of_stream = false;
  tasklib::Payload payload;
  /// The output's wire image as a pooled frame view -- the same slab
  /// the Data Manager's sends shipped, handed to the checkpoint store
  /// without another copy (D13).  Invalid on refusal paths.
  dm::FrameView output_frame;
  /// Compute-phase wall time, seconds: the task function alone, not the
  /// wait for inputs or the sends (what the Site Manager stores in the
  /// task-performance database).
  Duration compute_elapsed_s = 0.0;
  dm::ExecutionStats io_stats;
};

/// Per-task execution controller.
class ApplicationController {
 public:
  /// `broker` must outlive the controller.
  ApplicationController(dm::ChannelBroker& broker, dm::MpLibrary library,
                        common::AppId app, HostId host);

  /// Phase 1 (execution request): activates the Data Manager and sets up
  /// the channels.  Returning is the setup acknowledgment.
  void activate(const dm::TaskWiring& wiring);

  /// Sets the load threshold and probe; when the probe reads above the
  /// threshold at the pre-compute check, the task is not run and a
  /// rescheduling request is produced instead.
  void set_load_guard(LoadProbe probe, double threshold);

  /// Sets the liveness probe; when it reports this controller's host
  /// dead at the pre-compute check, the task is refused with a
  /// kHostFailure rescheduling request.  Checked before the load guard
  /// (a dead host's load reading is meaningless).
  void set_fault_guard(AliveProbe probe);

  /// Arms the Data Manager's receive timeout (dead-peer guard for the
  /// fault-tolerance loop); <= 0 blocks indefinitely.
  void set_recv_timeout(double seconds) { dm_.set_recv_timeout(seconds); }

  /// Points the controller at a replacement machine after a reschedule.
  /// Only the host identity moves; the Data Manager keeps its wiring.
  void rebind_host(HostId host) { host_ = host; }
  [[nodiscard]] HostId host() const { return host_; }

  /// Phase 2 (after the startup signal): runs one frame of the task
  /// under the Data Manager, timing the compute phase.  Every call
  /// consults the fault guard first, then the load guard.
  [[nodiscard]] TaskOutcome execute(const tasklib::TaskRegistry& registry,
                                    const std::string& library_task,
                                    const tasklib::TaskContext& ctx,
                                    dm::ConsoleService* console = nullptr);

  /// Closes the Data Manager channels (used on both success and error
  /// paths so peer tasks unblock).
  void shutdown();

  [[nodiscard]] const dm::DataManager& data_manager() const { return dm_; }

 private:
  common::AppId app_;
  HostId host_;
  dm::TaskWiring wiring_;
  dm::DataManager dm_;
  LoadProbe probe_;
  AliveProbe alive_probe_;
  double threshold_ = 0.0;
};

}  // namespace vdce::rt
