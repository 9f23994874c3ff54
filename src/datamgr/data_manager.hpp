// The Data Manager of one executing task.
//
// "for a thread-based programming environment, the Data Manager consists
//  of three threads that are initiated by the communication proxy: send
//  thread, receive thread, and compute thread.  After the communication
//  channel is established, the send and receive threads are activated
//  for data transfer and the compute thread performs the task
//  execution."  (Section 2.3.2)
//
// Lifecycle (Figure 7): the engine activates the Data Manager
// (construct) and it sets up its channels via the broker (setup(),
// which completes the paper's setup/acknowledgment step), both on the
// engine's thread; the round's hand-over to the stage threads is the
// execution startup signal, and the Application Controller -- the
// task's stage thread (DESIGN.md D9) -- then runs the task's frames.
//
// Departure from Section 2.3.2: no separate send, receive and compute
// threads.  The calling stage thread does all three in order, once per
// frame, and over TCP a thread of the communication proxy reads each
// connection into its link's inbox (DESIGN.md D9 shows why the order
// cannot deadlock).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "datamgr/broker.hpp"
#include "datamgr/mplib.hpp"
#include "datamgr/services.hpp"
#include "tasklib/registry.hpp"

namespace vdce::dm {

/// Message tag carried on every inter-task payload frame.  The stage
/// runner's restore feeders send kept outputs under it too, so a
/// restored input is indistinguishable from a live one.
inline constexpr int kPayloadTag = 7;

/// A task's position in the dataflow: which links it consumes and
/// produces.
struct TaskWiring {
  AppId app;
  TaskId task;
  /// Parent task ids in input-port order (FlowGraph::ordered_parents);
  /// input payloads are delivered to the task function in this order.
  std::vector<TaskId> parents;
  /// Child task ids (the output payload is replicated to each).
  std::vector<TaskId> children;
};

/// Statistics of one task execution, for the visualization services.
struct ExecutionStats {
  std::size_t bytes_received = 0;
  std::size_t bytes_sent = 0;
  std::size_t messages_received = 0;
  std::size_t messages_sent = 0;
};

/// Per-task Data Manager.
class DataManager {
 public:
  /// `broker` must outlive the manager.
  DataManager(ChannelBroker& broker, MpLibrary library = MpLibrary::kP4);

  /// Channel setup (Figure 7 steps 2-3): opens the receive endpoint of
  /// every in-edge, then the send endpoint of every out-edge.
  /// Returning normally is the acknowledgment the engine collects
  /// before its execution startup signal.  No open waits for the
  /// other end of its link, so set-up never blocks.
  void setup(const TaskWiring& wiring);

  /// Executes one frame of the task (Figure 7 step 5) on the calling
  /// thread: one payload received per parent in port order, the library
  /// function, then the output sent to every child in wiring order.
  /// `console`, when given, is honoured at the pre- and post-compute
  /// checkpoints.  Returns nullopt, without computing, when the first
  /// input is at end of stream (its producer closed after its last
  /// frame); a later input closing mid-frame is a TransportError.
  [[nodiscard]] std::optional<tasklib::Payload> run_frame(
      const tasklib::TaskRegistry& registry, const std::string& library_task,
      const tasklib::TaskContext& ctx, ConsoleService* console = nullptr);

  /// One-shot run_frame(): an input closed before delivering is an
  /// error.  Returns the task's output payload.
  [[nodiscard]] tasklib::Payload run(const tasklib::TaskRegistry& registry,
                                     const std::string& library_task,
                                     const tasklib::TaskContext& ctx,
                                     ConsoleService* console = nullptr);

  /// Closes every channel (idempotent).
  void teardown();

  /// Arms a receive-side timeout for run(): a peer that neither
  /// delivers nor closes within `seconds` fails the receive with a
  /// TransportError instead of hanging this stage thread forever
  /// (the engine's recovery then re-runs the task).
  /// `seconds <= 0` (the default) blocks indefinitely.
  void set_recv_timeout(double seconds) { recv_timeout_s_ = seconds; }

  [[nodiscard]] const ExecutionStats& stats() const { return stats_; }

  /// Wall seconds of the last run_frame()'s task function alone: the
  /// wait for inputs before it and the sends after it are not counted.
  [[nodiscard]] double compute_s() const { return compute_s_; }

  /// The wire image (type tag + body) of the last run()'s output as a
  /// pooled frame view — the very slab the sends shipped, so a
  /// checkpoint capture of it costs a refcount bump, not a copy.
  /// Invalid before run() completes.
  [[nodiscard]] const FrameView& output_frame() const {
    return output_frame_;
  }

  /// The input links that are bounded rings (every in-process link),
  /// for their occupancy and backpressure counters.
  [[nodiscard]] const std::vector<std::shared_ptr<RingChannel>>& input_rings()
      const {
    return input_rings_;
  }

 private:
  ChannelBroker* broker_;
  MpLibrary library_;
  TaskWiring wiring_;
  bool is_set_up_ = false;
  double recv_timeout_s_ = 0.0;
  std::vector<MessageEndpoint> inputs_;   // one per parent, same order
  std::vector<MessageEndpoint> outputs_;  // one per child, same order
  std::vector<std::shared_ptr<RingChannel>> input_rings_;
  ExecutionStats stats_;
  double compute_s_ = 0.0;
  FrameView output_frame_;
};

}  // namespace vdce::dm
