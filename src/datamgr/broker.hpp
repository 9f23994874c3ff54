// Channel rendezvous broker.
//
// Figure 7 of the paper: the Application Controller activates the Data
// Manager, which "activates the communication proxy and sends the
// resource allocation information, including the socket number, IP
// address for target machine, etc., that will be used for communication
// channel setup."  The broker is that allocation-information exchange:
// the consuming side of every AFG link registers its endpoint (in
// process, a bounded RingChannel both ends share; over TCP, a link id
// on its process's communication proxy, whose listening port is the
// paper's "socket number"), and the producing side looks the endpoint
// up and connects (over TCP: leases a persistent proxy connection, see
// proxy.hpp).
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

#include "common/clock.hpp"
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

/// Thread-safe channel rendezvous.  The consumer calls open_receive
/// (non-blocking); the producer calls open_send, which waits until the
/// consumer has registered, then connects.  A link is point to point:
/// one open_receive and one open_send per key.
class ChannelBroker {
 public:
  /// `link_capacity`: the frames of every in-process link's ring.
  explicit ChannelBroker(TransportKind kind,
                         std::size_t link_capacity = kDefaultRingCapacity)
      : kind_(kind), link_capacity_(link_capacity) {}

  /// Registers the consuming end of a link and returns its receive
  /// channel: in process, a RingChannel of the broker's capacity.
  /// Throws StateError if the link is already registered.
  [[nodiscard]] std::shared_ptr<Channel> open_receive(const LinkKey& key);

  /// Connects the producing end; blocks up to `timeout_s` for the
  /// consumer to register.  In process it returns the very ring
  /// open_receive made.  Throws TransportError on timeout, or promptly
  /// when clear_app(key.app) runs while this call is waiting (the
  /// registration it is waiting for belongs to a torn-down run and will
  /// never arrive).
  [[nodiscard]] std::shared_ptr<Channel> open_send(const LinkKey& key,
                                                   common::Duration timeout_s =
                                                       10.0);

  /// Drops all registrations of one application (run finished or being
  /// recovered).  Idempotent, and safe to call concurrently with feeder
  /// threads still draining: any open_send blocked on one of the
  /// dropped links aborts promptly with TransportError instead of
  /// sleeping out its full timeout (and possibly pairing with the NEXT
  /// recovery round's registration for the same key).  In-process links
  /// are aborted: queued frames drop and every producer parked on a
  /// full ring — and every consumer parked on an empty one — wakes
  /// with TransportError.
  void clear_app(AppId app);

 private:
  struct Registration {
    // In-process: the ring both ends share.
    std::shared_ptr<RingChannel> ring;
    // TCP: the consumer's proxy port and link id.
    ProxyAddress proxy;
  };

  /// Waits (under `lk`) for the consumer to register `key`; throws
  /// TransportError on timeout or when clear_app(key.app) runs meanwhile.
  Registration& await_registration(std::unique_lock<std::mutex>& lk,
                                   const LinkKey& key,
                                   common::Duration timeout_s);

  TransportKind kind_;
  std::size_t link_capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<LinkKey, Registration> registrations_;
  /// Bumped by every clear_app(app): an open_send that entered before
  /// the clear observes the bump and aborts rather than adopting a
  /// later run's registration.  Bounded by the number of distinct apps
  /// a broker ever carries (one engine run owns one broker).
  std::map<AppId, std::uint64_t> clear_generation_;
};

}  // namespace vdce::dm
