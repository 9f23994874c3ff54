// Message-passing library facades.
//
// "Since user tasks can be programmed in various message-passing tools,
//  the VDCE Runtime System supports multiple message-passing libraries
//  such as P4, PVM, MPI, NCS."  (Section 2.3.2)
//
// Each facade wraps a Channel with that library's envelope and on-wire
// behaviour: P4 sends plain tagged messages; PVM packs and fragments
// into fixed-size buffers; MPI carries a communicator id checked on
// receive; NCS (the multithreaded ATM tool) streams with sequence
// numbers verified on arrival.  All four interoperate with the same
// Channel transports.
//
// The frame-based API (D13) avoids the per-hop copies of the vector
// API: prepare()/send_prepared() let a producer serialize its payload
// directly into the pooled envelope frame and share that one frame
// across every consumer link, and receive_frame() hands back the
// payload as a zero-copy subview of the received envelope (P4/MPI/NCS)
// or one reassembled pooled frame (PVM).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "datamgr/channel.hpp"

namespace vdce::dm {

enum class MpLibrary : std::uint8_t { kP4 = 1, kPvm, kMpi, kNcs };

[[nodiscard]] std::string to_string(MpLibrary lib);
[[nodiscard]] MpLibrary mp_library_from_string(const std::string& s);

/// A tagged message as seen by user task code.
struct TaggedMessage {
  int tag = 0;
  std::vector<std::byte> data;
};

/// A tagged message whose payload is a zero-copy view into the received
/// envelope frame (P4/MPI/NCS) or a reassembled pooled frame (PVM).
struct TaggedFrame {
  int tag = 0;
  FrameView data;
};

/// A pooled envelope frame with the library header already written and
/// room for the payload at body().  Fill the body, then pass
/// frame.view() to send_prepared() — on every consumer link: the whole
/// point is that ONE prepared frame fans out to all of them.
struct PreparedFrame {
  Frame frame;
  std::size_t body_offset = 0;

  [[nodiscard]] std::span<std::byte> body() {
    return frame.span().subspan(body_offset);
  }
};

/// One endpoint of a message-passing session over a channel.
///
/// A sending endpoint wraps the sending channel end; a receiving
/// endpoint wraps the receiving end.  Both sides must use the same
/// library (checked by a magic byte in every envelope).
class MessageEndpoint {
 public:
  /// PVM fragment payload size, bytes.
  static constexpr std::size_t kPvmFragment = 4096;

  MessageEndpoint(MpLibrary library, std::shared_ptr<Channel> channel,
                  std::uint32_t communicator = 0);

  /// Sends one tagged message using the library's envelope.
  void send(int tag, std::span<const std::byte> data);

  /// Zero-copy send of an already-framed payload: P4/MPI/NCS copy it
  /// once into the pooled envelope; PVM sends the header then each
  /// fragment as a subview of `data` (no fragment copies at all).
  void send_frame(int tag, const FrameView& data);

  /// Allocates the envelope frame for a `body_size`-byte payload with
  /// the header written (P4/MPI/NCS; PVM fragments, so it has no single
  /// envelope — StateError).  Does NOT advance NCS send state: that
  /// happens in send_prepared(), so one prepared frame may be sent on
  /// several endpoints as long as they agree on the sequence number
  /// (all fresh endpoints do — they start at 0 and the engine sends
  /// exactly one payload message per link).
  [[nodiscard]] PreparedFrame prepare(int tag, std::size_t body_size);

  /// Sends a frame built by prepare() (advancing NCS send state).
  void send_prepared(const FrameView& envelope);

  /// Receives the next message; nullopt when the channel closes.
  /// Throws TransportError on an envelope violation (wrong library,
  /// wrong communicator, out-of-order NCS sequence, missing PVM
  /// fragment).
  [[nodiscard]] std::optional<TaggedMessage> receive();

  /// Like receive(), but each underlying frame read gives up after
  /// `timeout_s` seconds with a TransportError (the Data Manager's
  /// dead-peer guard).  `timeout_s <= 0` blocks.
  [[nodiscard]] std::optional<TaggedMessage> receive_for(double timeout_s);

  /// Frame-view variants of receive()/receive_for(); same contracts.
  [[nodiscard]] std::optional<TaggedFrame> receive_frame();
  [[nodiscard]] std::optional<TaggedFrame> receive_frame_for(
      double timeout_s);

  void close() { channel_->close(); }

  [[nodiscard]] MpLibrary library() const { return library_; }

 private:
  [[nodiscard]] std::optional<TaggedFrame> receive_frame_impl(
      double timeout_s);
  /// PVM framing: a header frame, then `send_fragment(offset, length)`
  /// for each kPvmFragment-sized piece of a `size`-byte payload.
  template <typename SendFragment>
  void send_pvm(int tag, std::size_t size, SendFragment&& send_fragment);

  MpLibrary library_;
  std::shared_ptr<Channel> channel_;
  std::uint32_t communicator_;
  std::uint32_t send_seq_ = 0;
  std::uint32_t recv_seq_ = 0;
};

}  // namespace vdce::dm
