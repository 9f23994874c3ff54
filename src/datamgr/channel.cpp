#include "datamgr/channel.hpp"

#include <atomic>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/queue.hpp"

namespace vdce::dm {

// -- Channel adapters ------------------------------------------------------

void Channel::send(std::span<const std::byte> message) {
  send_frame(FramePool::global().copy_of(message));
}

std::optional<std::vector<std::byte>> Channel::receive_for(double timeout_s) {
  auto frame = receive_frame_for(timeout_s);
  if (!frame) return std::nullopt;
  return frame->to_vector();
}

namespace {

/// Shared queue state of an in-process channel pair.  The queue carries
/// frame views: a send moves one refcounted view, not the bytes.
struct InProcCore {
  common::MessageQueue<FrameView> queue;
  std::atomic<std::size_t> bytes_sent{0};
};

[[noreturn]] void wrong_direction(const char* what) {
  throw common::TransportError(what);
}

class InProcSender final : public Channel {
 public:
  explicit InProcSender(std::shared_ptr<InProcCore> core)
      : core_(std::move(core)) {}

  void send_frame(const FrameView& frame) override {
    // Zero-copy: the queue carries the view, a refcount bump only.
    if (!core_->queue.push(frame)) {
      throw common::TransportError("send on closed in-process channel");
    }
    core_->bytes_sent += frame.size();
  }

  std::optional<FrameView> receive_frame_for(double) override {
    wrong_direction("receive on the sending end of an in-process channel");
  }

  void close() override { core_->queue.close(); }

  std::size_t bytes_sent() const override { return core_->bytes_sent; }

 private:
  std::shared_ptr<InProcCore> core_;
};

class InProcReceiver final : public Channel {
 public:
  explicit InProcReceiver(std::shared_ptr<InProcCore> core)
      : core_(std::move(core)) {}

  void send_frame(const FrameView&) override {
    wrong_direction("send on the receiving end of an in-process channel");
  }

  std::optional<FrameView> receive_frame_for(double timeout_s) override {
    if (timeout_s <= 0.0) return core_->queue.pop();
    auto view = core_->queue.pop_for(std::chrono::duration<double>(timeout_s));
    if (view) return view;
    // pop_for returns nullopt both on timeout and on an orderly close;
    // only the former is an error.
    if (auto late = core_->queue.try_pop()) return late;
    if (core_->queue.closed()) return std::nullopt;
    common::MetricsRegistry::global()
        .counter("datamgr.deadline_expiries")
        .add(1);
    throw common::TransportError("in-process receive timed out after " +
                                 std::to_string(timeout_s) + "s");
  }

  void close() override { core_->queue.close(); }

  std::size_t bytes_sent() const override { return core_->bytes_sent; }

 private:
  std::shared_ptr<InProcCore> core_;
};

}  // namespace

InProcPair make_inproc_pair() {
  auto core = std::make_shared<InProcCore>();
  return InProcPair{std::make_shared<InProcSender>(core),
                    std::make_shared<InProcReceiver>(core)};
}

}  // namespace vdce::dm
