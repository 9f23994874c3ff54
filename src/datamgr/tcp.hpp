// TCP loopback transport: real sockets behind the Channel interface.
//
// The prototype's Data Manager spoke BSD sockets across the campus
// network; here both endpoints live on 127.0.0.1 but traverse the full
// kernel socket path.  Messages are framed with a 4-byte big-endian
// length prefix.
//
// TcpChannel, TcpListener, TcpServer and tcp_connect carry the control
// plane (daemon RPC, heartbeats, gossip): one connection per peer
// session.  Inter-task data links do not use them; they ride the
// persistent connections of the communication proxy (proxy.hpp).
//
// Every control socket already has a thread blocked waiting on it (a
// session, a client awaiting its reply), so a TcpChannel reads its own
// socket on the receiving thread: receive()/receive_for() poll against
// the remaining deadline and recv straight into a pooled frame, and a
// frame that a deadline interrupted resumes on the next call (design
// D13).  Sends are a single scatter/gather sendmsg of header + body
// straight out of the caller's buffer (or pooled frame) -- no
// concatenation copy.  TcpServer is the one way to serve a listener:
// its accept loop and each connection's session are jobs of one
// ParkedThreadPool gang (design D14).  Every socket is close-on-exec,
// so a spawned site daemon inherits none of them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "datamgr/channel.hpp"

namespace vdce::dm {

/// A channel over a connected TCP socket.
class TcpChannel final : public Channel {
 public:
  /// Largest frame either direction accepts by default.  The 4-byte
  /// length header caps frames at 4 GiB - 1 anyway; anything above this
  /// limit is rejected outright — on send so an oversized message can
  /// never be silently truncated into a corrupt frame stream, and on
  /// receive so a corrupt or hostile length header cannot trigger a
  /// multi-gigabyte allocation before the body arrives.
  static constexpr std::size_t kDefaultMaxMessageBytes =
      std::size_t{1} << 30;  // 1 GiB

  /// Takes a connected socket fd; it becomes non-blocking and is closed
  /// with the channel.
  explicit TcpChannel(int fd);
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// Straight out of the caller's buffer: no pooled copy first.
  void send(std::span<const std::byte> message) override;
  void send_frame(const FrameView& frame) override;
  [[nodiscard]] std::optional<FrameView> receive_frame_for(
      double timeout_s) override;
  /// Shuts the socket down; safe from any thread, and wakes a receive
  /// blocked on another.
  void close() override;
  [[nodiscard]] std::size_t bytes_sent() const override;

  /// Tightens (or loosens, up to 4 GiB - 1) the per-message frame
  /// limit; both peers of a channel must agree.  Mostly for tests.
  void set_max_message_bytes(std::size_t limit);

 private:
  void send_bytes(std::span<const std::byte> body);
  /// Reads what the socket holds into the frame being parsed: the frame
  /// once it is complete, else nullopt (the socket ran dry, or the
  /// stream ended and ended_ says how).
  [[nodiscard]] std::optional<FrameView> read_frame();

  int fd_;
  std::atomic<bool> shut_{false};
  std::atomic<std::size_t> bytes_sent_{0};
  std::atomic<std::size_t> max_message_bytes_{kDefaultMaxMessageBytes};

  // The receiving thread's alone.  A frame that a deadline interrupted
  // stays here and resumes on the next receive.
  std::array<std::byte, 4> header_{};
  std::size_t header_fill_ = 0;
  Frame body_;  // valid once the header is in, until the body is
  std::size_t body_fill_ = 0;
  /// Set once the stream ended: empty for an orderly EOF, else the
  /// failure every later receive re-throws.
  std::optional<std::string> ended_;
};

/// A listening socket on 127.0.0.1 with a kernel-assigned port.
class TcpListener {
 public:
  TcpListener();
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The port the kernel assigned ("the socket number ... that will be
  /// used for communication channel setup").
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks for one inbound connection; returns it as a channel.
  [[nodiscard]] std::unique_ptr<TcpChannel> accept();

  /// Unblocks a pending accept() by closing the listening socket.
  void close();

 private:
  // Atomic because close() is the documented cross-thread way to wake
  // a blocked accept(): the waker races the accepting thread's reads.
  std::atomic<int> fd_;
  std::uint16_t port_ = 0;
};

/// Serves a listener: the accept loop and one session per accepted
/// connection run as jobs of one ParkedThreadPool gang, so sessions
/// overlap, and a session that returns leaves nothing behind (its
/// connection is closed and forgotten, its thread parks for reuse).
class TcpServer {
 public:
  /// Serves one connection; returning ends it.  A TransportError that
  /// escapes ends it too (the connection failed); any other exception
  /// terminates the process, as on any gang job.
  using Session = std::function<void(TcpChannel&)>;

  /// Binds the listener; nothing is accepted before start().
  TcpServer() = default;
  /// stop(), then join().
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Starts the accept loop, serving every connection with `session`.
  /// Call once.
  void start(Session session);

  /// Closes the listener and every live connection (each session then
  /// sees EOF) and returns at once.  Idempotent; safe from a session.
  void stop();

  /// Returns once the accept loop and every session have returned,
  /// which takes a stop().  The owner's call: a session never joins.
  void join();

 private:
  void accept_loop();

  Session session_;
  TcpListener listener_;
  std::mutex mu_;
  bool stopping_ = false;
  /// The connections whose sessions run now, held for stop() to close.
  std::unordered_set<TcpChannel*> live_;
  common::ParkedThreadPool::Gang gang_;
};

/// Connects to 127.0.0.1:`port` once.  A TcpListener listens before
/// its port can be read, so a refused connect means nothing listens
/// there: it throws TransportError at once.  Callers that expect a peer
/// to come back (DaemonClient) retry themselves.
[[nodiscard]] std::unique_ptr<TcpChannel> tcp_connect(std::uint16_t port);

/// Writes `header` then `body` to a connected socket with one
/// scatter/gather sendmsg (MSG_NOSIGNAL), resuming after partial writes
/// and waiting for POLLOUT while a non-blocking socket is full.  Throws
/// TransportError when the socket fails.
void send_all(int fd, std::span<const std::byte> header,
              std::span<const std::byte> body);

}  // namespace vdce::dm
