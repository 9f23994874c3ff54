#include "datamgr/data_manager.hpp"

#include <chrono>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace vdce::dm {

using common::StateError;
using common::TransportError;

namespace {
common::Counter& counter(const char* name) {
  return common::MetricsRegistry::global().counter(name);
}
}  // namespace

DataManager::DataManager(ChannelBroker& broker, MpLibrary library)
    : broker_(&broker), library_(library) {}

void DataManager::setup(const TaskWiring& wiring) {
  if (is_set_up_) throw StateError("DataManager::setup called twice");
  wiring_ = wiring;
  // wiring.parents is in the consumer's input-port order; the received
  // payloads are handed to the task function in exactly that order.

  // Open every input, then every output: no open waits for the other
  // end of its link (the broker makes the link for whichever end comes
  // first), and no frame moves during set-up.
  for (const TaskId parent : wiring_.parents) {
    const LinkKey key{wiring_.app, parent, wiring_.task};
    std::shared_ptr<Channel> in = broker_->open_receive(key);
    if (auto ring = std::dynamic_pointer_cast<RingChannel>(in)) {
      input_rings_.push_back(std::move(ring));
    }
    inputs_.emplace_back(library_, std::move(in));
  }
  for (const TaskId child : wiring_.children) {
    const LinkKey key{wiring_.app, wiring_.task, child};
    outputs_.emplace_back(library_, broker_->open_send(key));
  }
  is_set_up_ = true;
}

std::optional<tasklib::Payload> DataManager::run_frame(
    const tasklib::TaskRegistry& registry, const std::string& library_task,
    const tasklib::TaskContext& ctx, ConsoleService* console) {
  if (!is_set_up_) throw StateError("DataManager::run before setup");

  // Receive: one payload per in-edge, in port order.
  std::vector<tasklib::Payload> received;
  received.reserve(inputs_.size());
  std::size_t bytes_in = 0;
  for (MessageEndpoint& in : inputs_) {
    try {
      auto msg = recv_timeout_s_ > 0.0 ? in.receive_frame_for(recv_timeout_s_)
                                       : in.receive_frame();
      if (!msg) {
        if (received.empty()) return std::nullopt;  // end of stream
        throw TransportError("input channel closed before delivering data");
      }
      // One copy at the decode boundary: Payload owns its bytes.
      received.push_back(tasklib::Payload::from_wire(msg->data.to_vector()));
    } catch (const std::exception& e) {
      throw TransportError("task " + library_task +
                           " receive failed: " + e.what());
    }
    bytes_in += received.back().size_bytes();
  }
  static common::Counter& frames_received = counter("datamgr.frames_received");
  static common::Counter& bytes_received = counter("datamgr.bytes_received");
  stats_.messages_received += received.size();
  stats_.bytes_received += bytes_in;
  frames_received.add(received.size());
  bytes_received.add(bytes_in);

  // Compute (honours the console service around the computation).
  if (console != nullptr) console->checkpoint();
  tasklib::Payload output;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  try {
    output = registry.run(library_task, received, ctx);
  } catch (const std::exception& e) {
    throw StateError("task " + library_task + " failed: " + e.what());
  }
  compute_s_ = std::chrono::duration<double>(Clock::now() - t0).count();
  if (console != nullptr) console->checkpoint();

  // Send: replicate the output on every out-edge.  The wire image is
  // serialized ONCE into a pooled frame that every link (and the
  // checkpoint capture, via output_frame()) shares.
  const std::size_t wire_n = output.wire_size();
  try {
    if (library_ == MpLibrary::kPvm || outputs_.empty()) {
      // PVM fragments the payload frame itself (no single envelope), and
      // a sink task still builds the frame so the checkpoint can pin it.
      Frame body = FramePool::global().allocate(wire_n);
      output.write_wire(body.span());
      output_frame_ = body.view();
      for (MessageEndpoint& out : outputs_) {
        out.send_frame(kPayloadTag, output_frame_);
      }
    } else {
      // P4/MPI/NCS: one prepared envelope fans out to every child.  All
      // output endpoints advance in lockstep (one payload message per
      // link per frame), so the sequence number prepare() wrote is
      // right for each.
      PreparedFrame prep = outputs_.front().prepare(kPayloadTag, wire_n);
      output.write_wire(prep.body());
      const FrameView full = prep.frame.view();
      output_frame_ = full.subview(prep.body_offset, wire_n);
      for (MessageEndpoint& out : outputs_) out.send_prepared(full);
    }
  } catch (const std::exception& e) {
    throw TransportError("task " + library_task + " send failed: " + e.what());
  }
  static common::Counter& frames_sent = counter("datamgr.frames_sent");
  static common::Counter& bytes_sent = counter("datamgr.bytes_sent");
  stats_.messages_sent += outputs_.size();
  stats_.bytes_sent += wire_n * outputs_.size();
  frames_sent.add(outputs_.size());
  bytes_sent.add(wire_n * outputs_.size());
  return output;
}

tasklib::Payload DataManager::run(const tasklib::TaskRegistry& registry,
                                  const std::string& library_task,
                                  const tasklib::TaskContext& ctx,
                                  ConsoleService* console) {
  auto output = run_frame(registry, library_task, ctx, console);
  if (!output) {
    throw TransportError("task " + library_task +
                         " receive failed: input channel closed before "
                         "delivering data");
  }
  return std::move(*output);
}

void DataManager::teardown() {
  for (auto& in : inputs_) in.close();
  for (auto& out : outputs_) out.close();
}

}  // namespace vdce::dm
