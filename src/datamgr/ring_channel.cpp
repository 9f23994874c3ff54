#include "datamgr/ring_channel.hpp"

#include <chrono>
#include <string>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace vdce::dm {

RingChannel::RingChannel(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<FrameView[]>(capacity == 0 ? 1 : capacity)) {}

RingChannel::~RingChannel() = default;

FrameView RingChannel::take_locked() {
  FrameView out = std::move(slots_[head_]);
  slots_[head_].reset();
  head_ = (head_ + 1) % capacity_;
  --count_;
  ++stats_.frames_popped;
  return out;
}

void RingChannel::push(FrameView frame) {
  std::unique_lock lk(mu_);
  const auto ready = [&] { return count_ < capacity_ || eos_ || aborted_; };
  if (!ready()) {
    ++stats_.producer_parks;
    not_full_.wait(lk, ready);
  }
  if (aborted_) {
    throw common::TransportError("push on an aborted ring channel");
  }
  if (eos_) {
    throw common::TransportError("push on a closed ring channel");
  }
  bytes_sent_ += frame.size();
  slots_[(head_ + count_) % capacity_] = std::move(frame);
  ++count_;
  ++stats_.frames_pushed;
  if (count_ > stats_.high_water) stats_.high_water = count_;
  lk.unlock();
  not_empty_.notify_one();
}

std::optional<FrameView> RingChannel::pop() { return pop_for(0.0); }

std::optional<FrameView> RingChannel::pop_for(double timeout_s) {
  std::optional<FrameView> out;
  {
    std::unique_lock lk(mu_);
    const auto ready = [&] { return count_ > 0 || eos_ || aborted_; };
    if (!ready()) {
      ++stats_.consumer_parks;
      if (timeout_s <= 0.0) {
        not_empty_.wait(lk, ready);
      } else if (!not_empty_.wait_for(
                     lk, std::chrono::duration<double>(timeout_s), ready)) {
        common::MetricsRegistry::global()
            .counter("datamgr.deadline_expiries")
            .add(1);
        throw common::TransportError("ring channel pop timed out after " +
                                     std::to_string(timeout_s) + "s");
      }
    }
    if (aborted_) {
      throw common::TransportError("pop on an aborted ring channel");
    }
    if (count_ == 0) return std::nullopt;  // clean EOS, drained
    out = take_locked();
  }
  not_full_.notify_one();
  return out;
}

void RingChannel::close() {
  {
    std::lock_guard lk(mu_);
    if (eos_) return;
    eos_ = true;
  }
  // A consumer parked on an empty ring sees end of stream; a producer
  // parked on a full one fails, as if its consumer had reset the link.
  not_empty_.notify_all();
  not_full_.notify_all();
}

void RingChannel::abort() {
  {
    std::lock_guard lk(mu_);
    if (aborted_) return;
    aborted_ = true;
    stats_.frames_dropped += count_;
    // Release the queued slabs now: an aborted stream's frames must not
    // pin pool memory until the ring object itself dies.
    for (std::size_t i = 0; i < count_; ++i) {
      slots_[(head_ + i) % capacity_].reset();
    }
    head_ = 0;
    count_ = 0;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::size_t RingChannel::size() const {
  std::lock_guard lk(mu_);
  return count_;
}

bool RingChannel::eos() const {
  std::lock_guard lk(mu_);
  return eos_;
}

bool RingChannel::aborted() const {
  std::lock_guard lk(mu_);
  return aborted_;
}

RingChannelStats RingChannel::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

// -- Channel interface ----------------------------------------------------

std::size_t RingChannel::bytes_sent() const {
  std::lock_guard lk(mu_);
  return bytes_sent_;
}

}  // namespace vdce::dm
