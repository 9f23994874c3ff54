#include "datamgr/broker.hpp"

#include <chrono>

#include "common/error.hpp"
#include "datamgr/tcp.hpp"

namespace vdce::dm {

namespace {

/// Receiving channel that performs the TCP accept lazily on the first
/// receive (on the consuming stage's thread, matching the proxy
/// handshake of Figure 7).
class LazyAcceptChannel final : public Channel {
 public:
  explicit LazyAcceptChannel(std::unique_ptr<TcpListener> listener)
      : listener_(std::move(listener)) {}

  void send_frame(const FrameView&) override {
    throw common::TransportError("send on a receive-only channel");
  }

  std::optional<FrameView> receive_frame_for(double timeout_s) override {
    ensure_accepted(timeout_s);
    return inner_ ? inner_->receive_frame_for(timeout_s) : std::nullopt;
  }

  void close() override {
    std::lock_guard lk(mu_);
    closed_ = true;
    if (listener_) listener_->close();
    if (inner_) inner_->close();
  }

  std::size_t bytes_sent() const override { return 0; }

 private:
  void ensure_accepted(double timeout_s) {
    std::lock_guard lk(mu_);
    if (inner_ || !listener_) return;
    try {
      inner_ = timeout_s > 0.0 ? listener_->accept_for(timeout_s)
                               : listener_->accept();
    } catch (const common::TransportError&) {
      listener_.reset();
      // Listener was closed before a producer connected: orderly EOF.
      // An accept timeout, by contrast, is a real receive failure.
      if (closed_) return;
      throw;
    }
    listener_.reset();
  }

  std::mutex mu_;
  bool closed_ = false;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<TcpChannel> inner_;
};

}  // namespace

std::shared_ptr<Channel> ChannelBroker::open_receive(const LinkKey& key) {
  std::lock_guard lk(mu_);
  if (registrations_.contains(key)) {
    throw common::StateError("link already registered with the broker");
  }
  std::shared_ptr<Channel> receiver;
  Registration reg;
  if (kind_ == TransportKind::kInProcess) {
    InProcPair pair = make_inproc_pair();
    reg.inproc_sender = std::move(pair.sender);
    receiver = std::move(pair.receiver);
  } else {
    auto listener = std::make_unique<TcpListener>();
    reg.port = listener->port();
    receiver = std::make_shared<LazyAcceptChannel>(std::move(listener));
  }
  registrations_.emplace(key, std::move(reg));
  cv_.notify_all();
  return receiver;
}

ChannelBroker::Registration& ChannelBroker::await_registration(
    std::unique_lock<std::mutex>& lk, const LinkKey& key,
    common::Duration timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  const std::uint64_t entry_generation = [&] {
    const auto it = clear_generation_.find(key.app);
    return it == clear_generation_.end() ? 0 : it->second;
  }();
  bool cleared = false;
  if (!cv_.wait_until(lk, deadline, [&] {
        const auto it = clear_generation_.find(key.app);
        cleared =
            it != clear_generation_.end() && it->second != entry_generation;
        return cleared || registrations_.contains(key);
      })) {
    throw common::TransportError(
        "channel setup timed out waiting for the consumer");
  }
  if (cleared) {
    // clear_app(key.app) ran while we waited: the consumer this call
    // was waiting for belongs to a torn-down run.  Abort instead of
    // adopting a later recovery round's registration for the same key.
    throw common::TransportError(
        "channel setup aborted: application cleared from the broker");
  }
  return registrations_.at(key);
}

std::shared_ptr<Channel> ChannelBroker::open_send(const LinkKey& key,
                                                  common::Duration timeout_s) {
  std::unique_lock lk(mu_);
  Registration& reg = await_registration(lk, key, timeout_s);
  if (kind_ == TransportKind::kInProcess) {
    if (!reg.inproc_sender) {
      throw common::StateError("link sender already claimed");
    }
    return std::move(reg.inproc_sender);
  }
  const std::uint16_t port = reg.port;
  lk.unlock();  // connect outside the lock; tcp_connect may retry/sleep
  return tcp_connect(port);
}

std::shared_ptr<RingChannel> ChannelBroker::open_stream_receive(
    const LinkKey& key, std::size_t capacity) {
  std::lock_guard lk(mu_);
  if (registrations_.contains(key)) {
    throw common::StateError("link already registered with the broker");
  }
  Registration reg;
  reg.ring = std::make_shared<RingChannel>(capacity);
  auto ring = reg.ring;
  registrations_.emplace(key, std::move(reg));
  cv_.notify_all();
  return ring;
}

std::shared_ptr<RingChannel> ChannelBroker::open_stream_send(
    const LinkKey& key, common::Duration timeout_s) {
  std::unique_lock lk(mu_);
  Registration& reg = await_registration(lk, key, timeout_s);
  if (!reg.ring) {
    throw common::StateError("link is registered as a batch channel");
  }
  if (reg.ring_claimed) {
    reg.ring->add_producer();
  } else {
    reg.ring_claimed = true;  // the ring's initial producer slot
  }
  return reg.ring;
}

void ChannelBroker::clear_app(AppId app) {
  std::lock_guard lk(mu_);
  for (auto it = registrations_.begin(); it != registrations_.end();) {
    if (it->first.app == app) {
      // Streaming links need more than erasure: a producer parked on a
      // full ring (or a consumer on an empty one) holds a shared_ptr to
      // the ring itself and would sleep forever if we only dropped the
      // registration.  abort() drops the queued frames and wakes every
      // parked thread with TransportError — the streaming extension of
      // the clear-generation bump below.
      if (it->second.ring) it->second.ring->abort();
      it = registrations_.erase(it);
    } else {
      ++it;
    }
  }
  // Wake any producer blocked in open_send on one of this app's links:
  // it observes the generation bump and aborts promptly rather than
  // waiting out its timeout or pairing with a later run's registration.
  ++clear_generation_[app];
  cv_.notify_all();
}

}  // namespace vdce::dm
