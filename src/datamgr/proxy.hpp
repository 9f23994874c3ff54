// The communication proxy: one listening socket per process and
// persistent loopback connections, each carrying one TCP link at a time
// (design D13, *Communication proxy*).
//
// Figure 7 of the paper: the Application Controller activates the Data
// Manager, which "activates the communication proxy" of its process;
// the process's inter-task traffic goes through it.  Here the proxy is
// created on the first TCP link of a process and lives as long as the
// process.  As the paper gives each task a receive thread, every
// socket of the proxy is read by a thread blocked on it: one job of
// the proxy's ParkedThreadPool gang accepts on its listener, and one
// job per accepted connection reads that connection's frames.
//
// A link is registered on its consumer's proxy (a process-unique id, no
// socket) by whichever end opens it first.  A producer leases an idle
// connection to the proxy's port, or connects a new one when none is
// idle, and sends on it; frames that arrive before the consumer takes
// the link wait in its inbox:
//
//   producer -> proxy   open <link>    binds the connection to the link
//                       data <length>  followed by `length` payload bytes
//                       end  <link>    end of stream; unbinds it
//   proxy -> producer   reset <link>   the link's consumer is gone
//
// Every frame starts with a 10-byte header: a magic byte, a kind byte
// and a big-endian u64 argument.  The open header goes out with the
// first data frame (or with the end marker of a link that sends
// nothing), and close() returns the connection to the idle set as soon
// as its end marker is written.  A link costs an open header, its
// frames and an end marker.
//
// One link per connection at a time: a consumer that stops reading
// stops only its own link's reader, which waits once 8 MiB or 4096
// frames sit unread in the link's inbox, so a send still blocks only
// when the consumer is not reading that link (D9).  A consumer that
// closes early costs no connection: the proxy discards the link's
// remaining frames up to its end marker and, if any were discarded or
// the link was unknown, writes back a reset.  The producer reads
// resets itself, without blocking, when it leases a connection and at
// most once a millisecond while it sends, and its next send on a reset
// link throws TransportError.  A connection that fails (EPIPE, EOF, a
// corrupt frame) fails its bound link and is never reused, and so is
// one whose link sent enough to have stopped its reader (8 MiB or 4096
// frames), lest the next link queue behind bytes no consumer has read.
// There is no cap and no idle timeout: the pool's size, and the number
// of reader threads, is the peak number of producer links open at
// once.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "datamgr/channel.hpp"

namespace vdce::dm {

class RxInbox;
class ProxyConnection;

/// Where a producer finds a link: the port of the consumer's process
/// proxy (the paper's "socket number") and the link id it registered.
struct ProxyAddress {
  std::uint16_t port = 0;
  std::uint64_t link = 0;
};

/// The proxy connection framing (public for the framing tests).
namespace proxy_wire {

inline constexpr std::uint8_t kMagic = 0xD7;
inline constexpr std::size_t kHeaderBytes = 10;

enum class Kind : std::uint8_t { kOpen = 1, kData = 2, kEnd = 3, kReset = 4 };

using Header = std::array<std::byte, kHeaderBytes>;

/// magic | kind | argument (big-endian u64).
[[nodiscard]] Header encode(Kind kind, std::uint64_t argument);

}  // namespace proxy_wire

/// The process's communication proxy.  Thread-safe.
class CommProxy {
 public:
  /// The consuming end of a newly registered link.
  struct Link {
    ProxyAddress address;
    std::shared_ptr<Channel> receiver;
  };

  /// The process's proxy, created with its listener on first use.
  /// Intentionally leaked, with its idle connections and its gang: its
  /// readers are never joined, and nothing they wait on changes while
  /// static destructors run.
  [[nodiscard]] static CommProxy& global();

  CommProxy(const CommProxy&) = delete;
  CommProxy& operator=(const CommProxy&) = delete;

  /// The listening port: the address every link of this process shares.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Registers a new link and returns its consuming end.  Creates no
  /// socket.
  [[nodiscard]] Link open_link();

  /// The producing end of `address`'s link, over an idle connection to
  /// its proxy or a new one.  Throws TransportError when nothing
  /// listens on the port.
  [[nodiscard]] std::shared_ptr<Channel> lease(const ProxyAddress& address);

  // -- used by the proxy's own channels and readers --------------------
  /// Takes the registration of a link its producer just opened; null if
  /// the id is unknown, already opened, or its consumer has closed.
  [[nodiscard]] std::shared_ptr<RxInbox> claim(std::uint64_t link);
  /// Drops a link's registration (its consumer closed).
  void forget(std::uint64_t link);
  /// Returns a producer's connection after its end marker: back to the
  /// idle set if `reusable` and its socket is sound, else closed.
  void release(std::unique_ptr<ProxyConnection> connection, bool reusable);

 private:
  CommProxy();

  /// Accepts for ever, launching a reader per connection.
  void accept_loop(int listener);
  [[nodiscard]] std::unique_ptr<ProxyConnection> acquire(std::uint16_t port);

  std::uint16_t port_ = 0;
  std::atomic<std::uint64_t> next_link_{1};  // 0 means "no link"

  std::mutex links_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<RxInbox>> links_;

  std::mutex idle_mu_;
  std::unordered_map<std::uint16_t,
                     std::vector<std::unique_ptr<ProxyConnection>>>
      idle_;

  /// The accept loop and one reader per accepted connection.
  common::ParkedThreadPool::Gang readers_;
};

}  // namespace vdce::dm
