#include "datamgr/broker.hpp"

#include "common/error.hpp"

namespace vdce::dm {

ChannelBroker::Registration& ChannelBroker::link_locked(const LinkKey& key) {
  if (const auto it = registrations_.find(key); it != registrations_.end()) {
    return it->second;
  }
  Registration reg;
  if (kind_ == TransportKind::kInProcess) {
    reg.ring = std::make_shared<RingChannel>(link_capacity_);
  } else {
    CommProxy::Link link = CommProxy::global().open_link();
    reg.proxy = link.address;
    reg.receiver = std::move(link.receiver);
  }
  return registrations_.emplace(key, std::move(reg)).first->second;
}

std::shared_ptr<Channel> ChannelBroker::open_receive(const LinkKey& key) {
  std::lock_guard lk(mu_);
  Registration& reg = link_locked(key);
  if (reg.receiving) {
    throw common::StateError("link already registered with the broker");
  }
  reg.receiving = true;
  if (reg.ring) return reg.ring;
  return std::move(reg.receiver);
}

std::shared_ptr<Channel> ChannelBroker::open_send(const LinkKey& key) {
  std::unique_lock lk(mu_);
  Registration& reg = link_locked(key);
  if (reg.sending) {
    throw common::StateError("link already has a producer");
  }
  reg.sending = true;
  if (reg.ring) return reg.ring;
  const ProxyAddress address = reg.proxy;
  lk.unlock();  // lease outside the lock; a new connection connects
  return CommProxy::global().lease(address);
}

void ChannelBroker::clear_app(AppId app) {
  std::lock_guard lk(mu_);
  for (auto it = registrations_.begin(); it != registrations_.end();) {
    if (it->first.app == app) {
      // A producer parked on a full ring (or a consumer on an empty
      // one) holds the ring itself and would sleep forever if we only
      // dropped the registration: abort() drops the queued frames and
      // wakes every parked thread with TransportError.  An unclaimed
      // TCP receiver closes as it is dropped, and the proxy resets the
      // link's producer.
      if (it->second.ring) it->second.ring->abort();
      it = registrations_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace vdce::dm
