// TCP loopback transport: real sockets behind the Channel interface.
//
// The prototype's Data Manager spoke BSD sockets across the campus
// network; here both endpoints live on 127.0.0.1 but traverse the full
// kernel socket path.  Messages are framed with a 4-byte big-endian
// length prefix.
//
// TcpChannel, TcpListener and tcp_connect carry the control plane
// (daemon RPC, heartbeats, gossip): one connection per peer session.
// Inter-task data links do not use them; they ride the persistent
// connections of the communication proxy (proxy.hpp).
//
// Since D13 the receive side is serviced by the shared TcpEventLoop:
// the channel's fd is non-blocking and owned by the loop, which parses
// frames into pooled buffers and fills the channel's inbox;
// receive()/receive_for() wait on that inbox.  Sends are a single
// scatter/gather sendmsg of header + body straight out of the caller's
// buffer (or pooled frame) — no concatenation copy.  Every socket is
// close-on-exec, so a spawned site daemon inherits none of them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "datamgr/channel.hpp"

namespace vdce::dm {

class TcpRxState;

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

  /// Takes a connected socket fd.  The fd becomes non-blocking and its
  /// receive side is owned by the shared event loop.
  explicit TcpChannel(int fd);
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// Straight out of the caller's buffer: no pooled copy first.
  void send(std::span<const std::byte> message) override;
  void send_frame(const FrameView& frame) override;
  [[nodiscard]] std::optional<FrameView> receive_frame_for(
      double timeout_s) override;
  void close() override;
  [[nodiscard]] std::size_t bytes_sent() const override;

  /// Tightens (or loosens, up to 4 GiB - 1) the per-message frame
  /// limit; both peers of a channel must agree.  Mostly for tests.
  void set_max_message_bytes(std::size_t limit);

 private:
  void send_bytes(std::span<const std::byte> body);

  int fd_;
  std::atomic<bool> shut_{false};
  std::atomic<std::size_t> bytes_sent_{0};
  std::atomic<std::size_t> max_message_bytes_{kDefaultMaxMessageBytes};
  std::shared_ptr<TcpRxState> rx_;
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

  /// Like accept(), but gives up after `timeout_s` seconds, throwing
  /// TransportError.  `timeout_s <= 0` blocks.
  [[nodiscard]] std::unique_ptr<TcpChannel> accept_for(double timeout_s);

  /// Unblocks a pending accept() by closing the listening socket.
  void close();

 private:
  // Atomic because close() is the documented cross-thread way to wake
  // a blocked accept(): the waker races the accepting thread's reads.
  std::atomic<int> fd_;
  std::uint16_t port_ = 0;
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
