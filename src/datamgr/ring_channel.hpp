// Bounded in-process link: a fixed-capacity ring of pooled frames
// with blocking backpressure (design decisions D9 and D16 in DESIGN.md).
//
// Every in-process link is a RingChannel, batch and stream alike (a
// batch run is the one-frame case of a stream).  Exemplar: R2sampler's
// fixed ring buffer between rate-converter stages.  One slab of
// `capacity` FrameView slots is allocated at construction, and two
// park/wake disciplines stand in for growth --
//
//   * a producer pushing into a full ring PARKS until its consumer
//     makes room (backpressure: the whole upstream pipeline throttles
//     to the slowest stage instead of buffering without limit);
//   * a consumer popping from an empty ring parks until its producer
//     delivers or the link closes.
//
// Both ends share the one object, and close() has one rule whichever
// end calls it: the consumer drains the queued frames and then sees
// end of stream (nullopt), and every push fails with TransportError --
// including one parked on a full ring, the in-process twin of the
// reset a TCP producer gets when its consumer leaves.  abort() is the
// hard teardown (ChannelBroker::clear_app): queued frames are dropped
// and every parked producer AND consumer wakes with TransportError.
//
// Thread-safe for any number of racing pushers and poppers.  FIFO
// order is global: frames pop in exactly the order their pushes
// committed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include <condition_variable>

#include "datamgr/channel.hpp"

namespace vdce::dm {

/// Point-in-time ring counters (reads are racy-but-consistent snapshots
/// under the ring's own lock).
struct RingChannelStats {
  std::uint64_t frames_pushed = 0;
  std::uint64_t frames_popped = 0;
  std::uint64_t frames_dropped = 0;   ///< queued frames discarded by abort()
  std::uint64_t producer_parks = 0;   ///< push() blocked on a full ring
  std::uint64_t consumer_parks = 0;   ///< pop() blocked on an empty ring
  std::size_t high_water = 0;         ///< max occupancy ever observed
};

/// Fixed-capacity single-allocation frame ring with backpressure.
///
/// Implements the Channel interface (send == blocking push of a pooled
/// copy, receive == pop) so a ring stands wherever a Channel is
/// expected.
class RingChannel final : public Channel {
 public:
  /// `capacity` >= 1 slots; the slot array is the only allocation the
  /// channel ever makes.
  explicit RingChannel(std::size_t capacity);
  ~RingChannel() override;

  /// Enqueues one frame view (refcount bump, zero bytes moved), parking
  /// while the ring is full.  Throws TransportError once the ring is
  /// closed or aborted, including while parked.
  void push(FrameView frame);

  /// Dequeues the next frame, parking while the ring is empty.  Returns
  /// nullopt only on clean end of stream (closed and drained).  Throws
  /// TransportError if the ring is aborted.
  [[nodiscard]] std::optional<FrameView> pop();

  /// Like pop(), but gives up after `timeout_s` seconds with
  /// TransportError (the dead-producer guard).  `timeout_s <= 0`
  /// blocks indefinitely.
  [[nodiscard]] std::optional<FrameView> pop_for(double timeout_s);

  /// Orderly close from either end: the consumer drains, then sees end
  /// of stream, and every push -- a parked one too -- fails with
  /// TransportError.  Idempotent.
  void close() override;

  /// Hard teardown: drops queued frames (releasing their slabs) and
  /// wakes every parked producer and consumer with TransportError.
  /// Idempotent.
  void abort();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  /// True once the ring is closed (frames may remain to drain).
  [[nodiscard]] bool eos() const;
  [[nodiscard]] bool aborted() const;
  [[nodiscard]] RingChannelStats stats() const;

  // -- Channel interface -------------------------------------------------

  void send_frame(const FrameView& frame) override { push(frame); }
  [[nodiscard]] std::optional<FrameView> receive_frame_for(
      double timeout_s) override {
    return pop_for(timeout_s);
  }
  [[nodiscard]] std::size_t bytes_sent() const override;

 private:
  /// Pops under the lock after the wait predicate passed; assumes
  /// count_ > 0.
  [[nodiscard]] FrameView take_locked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::unique_ptr<FrameView[]> slots_;  // the single allocation
  std::size_t head_ = 0;                // next slot to pop
  std::size_t count_ = 0;               // occupied slots
  bool eos_ = false;                    // closed by either end
  bool aborted_ = false;
  std::size_t bytes_sent_ = 0;
  RingChannelStats stats_;
};

}  // namespace vdce::dm
