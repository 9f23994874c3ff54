// Channel rendezvous broker.
//
// Figure 7 of the paper: the Application Controller activates the Data
// Manager, which "activates the communication proxy and sends the
// resource allocation information, including the socket number, IP
// address for target machine, etc., that will be used for communication
// channel setup."  The broker is that allocation-information exchange.
// Whichever end of an AFG link opens first makes its endpoint: in
// process, a bounded RingChannel both ends share; over TCP, the
// consumer's link on its process's communication proxy, whose listening
// port is the paper's "socket number".  The producing side connects to
// that endpoint (over TCP: leases a persistent proxy connection, see
// proxy.hpp).  Neither end ever waits for the other.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "common/ids.hpp"
#include "datamgr/channel.hpp"
#include "datamgr/proxy.hpp"
#include "datamgr/ring_channel.hpp"

namespace vdce::dm {

using common::AppId;
using common::TaskId;

/// Which transport carries inter-task messages.
enum class TransportKind : std::uint8_t {
  kInProcess,  // one bounded RingChannel per link
  kTcp,        // real loopback sockets
};

/// Frames an in-process link buffers before its producer parks: every
/// batch run's, and a stream's unless StreamingConfig says otherwise.
inline constexpr std::size_t kDefaultRingCapacity = 8;

/// Identity of one AFG link instance within one application run.
struct LinkKey {
  AppId app;
  TaskId from;
  TaskId to;

  friend auto operator<=>(const LinkKey&, const LinkKey&) = default;
};

/// Thread-safe channel rendezvous.  open_receive and open_send each
/// find the key's link or make it, so neither waits for the other end.
/// A link is point to point: one open_receive and one open_send per
/// key.
class ChannelBroker {
 public:
  /// `link_capacity`: the frames of every in-process link's ring.
  explicit ChannelBroker(TransportKind kind,
                         std::size_t link_capacity = kDefaultRingCapacity)
      : kind_(kind), link_capacity_(link_capacity) {}

  /// The consuming end of a link: in process, a RingChannel of the
  /// broker's capacity.  Frames its producer sent first are waiting in
  /// it.  Throws StateError if the consuming end is already open.
  [[nodiscard]] std::shared_ptr<Channel> open_receive(const LinkKey& key);

  /// The producing end of a link: in process, the very ring
  /// open_receive returns; over TCP, a leased connection to the link.
  /// Never waits for the consumer: frames sent before it opens wait in
  /// the ring (a full one parks the producer) or the link's inbox.
  /// Throws StateError if the producing end is already open.
  [[nodiscard]] std::shared_ptr<Channel> open_send(const LinkKey& key);

  /// Drops every link of one application, whichever end opened it (run
  /// finished or being recovered).  Idempotent, and safe to call
  /// concurrently with opens.  In-process links are aborted: queued
  /// frames drop and every producer parked on a full ring -- and every
  /// consumer parked on an empty one -- wakes with TransportError.  A
  /// TCP link its consumer never opened is closed, so its producer's
  /// sends fail as on a reset.
  void clear_app(AppId app);

 private:
  struct Registration {
    // In-process: the ring both ends share.
    std::shared_ptr<RingChannel> ring;
    // TCP: the link's address, and its consuming end until
    // open_receive takes it.
    ProxyAddress proxy;
    std::shared_ptr<Channel> receiver;
    bool receiving = false;
    bool sending = false;
  };

  /// The key's link, made now if neither end has opened it; mu_ held.
  Registration& link_locked(const LinkKey& key);

  TransportKind kind_;
  std::size_t link_capacity_;
  std::mutex mu_;
  std::map<LinkKey, Registration> registrations_;
};

}  // namespace vdce::dm
