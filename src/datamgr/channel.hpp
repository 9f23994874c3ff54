// Point-to-point communication channels.
//
// "The VDCE Data Manager is a socket-based, point-to-point communication
//  system for inter-task communications."  (Section 2.3.2)
//
// Channel is the abstraction both transports implement: the in-process
// transport (a bounded RingChannel per link, ring_channel.hpp) and the
// TCP loopback transport (real sockets, the paper's "any machine that
// supports socket programming can be part of VDCE").  Messages are
// framed: send() delivers a whole message or throws.
//
// The interface is frame-first (design D13): a FrameView pins a pooled
// slab, so passing one through a channel shares the producer's single
// allocation with every consumer.  Transports implement send_frame()
// and receive_frame_for(); the vector-based send/receive are adapters
// for callers that want an owned buffer.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "datamgr/frame.hpp"

namespace vdce::dm {

/// One directed message channel.  Thread-safe for one sender thread and
/// one receiver thread operating concurrently.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Zero-copy send of one framed message: the channel forwards the view
  /// (bumping its slab refcount) instead of copying bytes where the
  /// transport allows.  Throws TransportError if the channel is closed.
  virtual void send_frame(const FrameView& frame) = 0;

  /// Sends a copy of `message` (by default through one pooled frame).
  virtual void send(std::span<const std::byte> message);

  /// Waits for the next message as a pooled frame view; nullopt once the
  /// channel is closed and drained.  Gives up after `timeout_s` seconds
  /// with TransportError -- the guard that keeps a stage thread from
  /// hanging forever on a dead peer; `timeout_s <= 0` blocks.  Pure
  /// virtual: a transport that silently ignored the deadline would
  /// defeat the guard, so every channel must implement it.
  [[nodiscard]] virtual std::optional<FrameView> receive_frame_for(
      double timeout_s) = 0;

  /// Blocking receive_frame_for().
  [[nodiscard]] std::optional<FrameView> receive_frame() {
    return receive_frame_for(0.0);
  }

  /// Owned-buffer variants of receive_frame()/receive_frame_for().
  [[nodiscard]] std::optional<std::vector<std::byte>> receive() {
    return receive_for(0.0);
  }
  [[nodiscard]] std::optional<std::vector<std::byte>> receive_for(
      double timeout_s);

  /// Closes the channel; pending receives drain, then return nullopt.
  virtual void close() = 0;

  /// Total bytes sent so far (for the visualization services).
  [[nodiscard]] virtual std::size_t bytes_sent() const = 0;
};

}  // namespace vdce::dm
