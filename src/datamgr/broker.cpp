#include "datamgr/broker.hpp"

#include <chrono>

#include "common/error.hpp"

namespace vdce::dm {

std::shared_ptr<Channel> ChannelBroker::open_receive(const LinkKey& key) {
  std::lock_guard lk(mu_);
  if (registrations_.contains(key)) {
    throw common::StateError("link already registered with the broker");
  }
  std::shared_ptr<Channel> receiver;
  Registration reg;
  if (kind_ == TransportKind::kInProcess) {
    reg.ring = std::make_shared<RingChannel>(link_capacity_);
    receiver = reg.ring;
  } else {
    CommProxy::Link link = CommProxy::global().open_link();
    reg.proxy = link.address;
    receiver = std::move(link.receiver);
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
  const Registration& reg = await_registration(lk, key, timeout_s);
  if (reg.ring) return reg.ring;
  const ProxyAddress address = reg.proxy;
  lk.unlock();  // lease outside the lock; a new connection connects
  return CommProxy::global().lease(address);
}

void ChannelBroker::clear_app(AppId app) {
  std::lock_guard lk(mu_);
  for (auto it = registrations_.begin(); it != registrations_.end();) {
    if (it->first.app == app) {
      // In-process links need more than erasure: a producer parked on
      // a full ring (or a consumer on an empty one) holds a shared_ptr
      // to the ring itself and would sleep forever if we only dropped
      // the registration.  abort() drops the queued frames and wakes
      // every parked thread with TransportError — the ring's extension
      // of the clear-generation bump below.
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
