#include "datamgr/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "datamgr/event_loop.hpp"

namespace vdce::dm {

using common::TransportError;

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void encode_header(std::byte (&header)[4], std::size_t size) {
  const auto n = static_cast<std::uint32_t>(size);
  header[0] = std::byte{static_cast<std::uint8_t>(n >> 24)};
  header[1] = std::byte{static_cast<std::uint8_t>(n >> 16)};
  header[2] = std::byte{static_cast<std::uint8_t>(n >> 8)};
  header[3] = std::byte{static_cast<std::uint8_t>(n)};
}

}  // namespace

// The writev path of D13: sendmsg is vectored like writev but honours
// MSG_NOSIGNAL.
void send_all(int fd, std::span<const std::byte> header,
              std::span<const std::byte> body) {
  iovec iov[2] = {
      {const_cast<std::byte*>(header.data()), header.size()},
      {const_cast<std::byte*>(body.data()), body.size()},
  };
  const int count = body.empty() ? 1 : 2;
  int idx = 0;
  while (idx < count) {
    msghdr msg{};
    msg.msg_iov = &iov[idx];
    msg.msg_iovlen = static_cast<std::size_t>(count - idx);
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) fail("tcp send poll");
        continue;
      }
      fail("tcp send");
    }
    std::size_t left = static_cast<std::size_t>(w);
    while (idx < count && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < count && left > 0) {
      iov[idx].iov_base = static_cast<std::byte*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
}

/// TcpChannel's receive side: a loop reader that parses 4-byte
/// length-prefixed frames from one socket into the channel's inbox.
class TcpRxState final : public LoopReader {
 public:
  explicit TcpRxState(std::size_t max_bytes) : max_message_bytes(max_bytes) {
    feed_.bind(inbox);
  }

  const std::shared_ptr<RxInbox> inbox = std::make_shared<RxInbox>();
  std::atomic<std::size_t> max_message_bytes;

  void on_readable(TcpEventLoop& loop, int fd) override;

  void on_rearm(TcpEventLoop& loop, int fd) override {
    if (done_ || !inbox->paused.load()) return;
    inbox->paused.store(false);
    loop.arm(fd, *this);
  }

  void on_unwatchable(TcpEventLoop& loop, int fd,
                      const std::string& what) override {
    finish(loop, fd, what);
  }

 private:
  /// EOF or error: publish what is parsed, close the inbox, never read
  /// this fd again.
  void finish(TcpEventLoop& loop, int fd, const std::string& error) {
    if (done_) return;
    done_ = true;
    body_.reset();
    loop.disarm(fd, *this);
    feed_.finish(error);
  }

  /// The frame in body_ is complete; false once reading must stop.
  bool deliver(TcpEventLoop& loop, int fd) {
    in_body_ = false;
    header_fill_ = 0;
    FrameView view = body_.view();
    body_.reset();
    switch (feed_.deliver(loop, fd, *this, std::move(view))) {
      case InboxFeed::State::kReading:
        return true;
      case InboxFeed::State::kPaused:
        return false;
      case InboxFeed::State::kConsumerGone:
        finish(loop, fd, "");  // receiver closed: stop reading
        return false;
    }
    return false;
  }

  std::array<std::byte, 4> header_{};
  std::size_t header_fill_ = 0;
  bool in_body_ = false;
  Frame body_;
  std::size_t body_fill_ = 0;
  bool done_ = false;
  InboxFeed feed_;
};

void TcpRxState::on_readable(TcpEventLoop& loop, int fd) {
  if (done_) return;
  // Parse until the socket runs dry, batching parsed frames in the
  // feed; the flush below publishes the whole wakeup's worth with one
  // queue lock and one notify.
  for (;;) {
    if (!in_body_) {
      const ssize_t r = ::recv(fd, header_.data() + header_fill_,
                               header_.size() - header_fill_, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        finish(loop, fd, std::string("tcp recv: ") + std::strerror(errno));
        return;
      }
      if (r == 0) {
        // Orderly EOF at a frame boundary, else a torn frame.
        finish(loop, fd,
               header_fill_ == 0 ? "" : "tcp peer closed mid-message");
        return;
      }
      header_fill_ += static_cast<std::size_t>(r);
      if (header_fill_ < header_.size()) continue;
      std::uint32_t n = 0;
      for (const std::byte b : header_) {
        n = (n << 8) | static_cast<std::uint8_t>(b);
      }
      // Bounds-check the decoded length before allocating: a corrupt or
      // hostile header must not provoke a giant allocation.
      const std::size_t limit =
          max_message_bytes.load(std::memory_order_relaxed);
      if (n > limit) {
        finish(loop, fd,
               "tcp frame header claims " + std::to_string(n) +
                   " bytes, above the frame limit of " +
                   std::to_string(limit) + " bytes (corrupt stream?)");
        return;
      }
      in_body_ = true;
      body_fill_ = 0;
      body_ = FramePool::global().allocate(n);
      if (n == 0 && !deliver(loop, fd)) return;
    } else {
      const ssize_t r = ::recv(fd, body_.data() + body_fill_,
                               body_.size() - body_fill_, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        finish(loop, fd, std::string("tcp recv: ") + std::strerror(errno));
        return;
      }
      if (r == 0) {
        finish(loop, fd, "tcp peer closed mid-message");
        return;
      }
      body_fill_ += static_cast<std::size_t>(r);
      if (body_fill_ == body_.size() && !deliver(loop, fd)) return;
    }
  }
  if (!feed_.flush()) finish(loop, fd, "");
}

TcpChannel::TcpChannel(int fd) : fd_(fd) {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  rx_ = std::make_shared<TcpRxState>(kDefaultMaxMessageBytes);
  rx_->inbox->feeder_fd.store(fd_);
  TcpEventLoop::global().add(fd_, rx_);
}

TcpChannel::~TcpChannel() {
  if (fd_ < 0) return;
  ::shutdown(fd_, SHUT_RDWR);
  TcpEventLoop::global().remove(fd_);  // the loop owns and closes the fd
  fd_ = -1;
}

void TcpChannel::send_bytes(std::span<const std::byte> body) {
  if (fd_ < 0 || shut_.load(std::memory_order_acquire)) {
    throw TransportError("send on closed tcp channel");
  }
  // The 4-byte length header cannot represent more than 4 GiB - 1; a
  // plain cast would silently truncate and desynchronise the frame
  // stream for every later message.  Reject instead.
  const std::size_t limit = max_message_bytes_.load(std::memory_order_relaxed);
  if (body.size() > limit) {
    throw TransportError("tcp message of " + std::to_string(body.size()) +
                         " bytes exceeds the frame limit of " +
                         std::to_string(limit) + " bytes");
  }
  std::byte header[4];
  encode_header(header, body.size());
  send_all(fd_, std::span<const std::byte>(header, 4), body);
  bytes_sent_.fetch_add(body.size(), std::memory_order_relaxed);
}

void TcpChannel::send(std::span<const std::byte> message) {
  send_bytes(message);
}

void TcpChannel::send_frame(const FrameView& frame) {
  send_bytes(frame.bytes());  // straight out of the pooled slab
}

std::optional<FrameView> TcpChannel::receive_frame_for(double timeout_s) {
  return rx_->inbox->receive_for(timeout_s);
}

void TcpChannel::set_max_message_bytes(std::size_t limit) {
  common::expects(limit > 0 &&
                      limit <= std::numeric_limits<std::uint32_t>::max(),
                  "frame limit must fit the 4-byte length header");
  max_message_bytes_.store(limit, std::memory_order_relaxed);
  rx_->max_message_bytes.store(limit, std::memory_order_relaxed);
}

void TcpChannel::close() {
  // Shut down only: the peer (and our event loop) gets an orderly EOF
  // instead of racing a reused descriptor.  The fd itself is released
  // by the event loop (remove()).
  if (fd_ >= 0 && !shut_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
}

std::size_t TcpChannel::bytes_sent() const {
  return bytes_sent_.load(std::memory_order_relaxed);
}

TcpListener::TcpListener()
    : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
  if (fd_ < 0) fail("tcp socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-assigned
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    fail("tcp bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    fail("tcp getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_, 16) < 0) fail("tcp listen");
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<TcpChannel> TcpListener::accept() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) throw TransportError("accept on closed listener");
  for (;;) {
    const int conn = ::accept4(fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn >= 0) return std::make_unique<TcpChannel>(conn);
    if (errno == EINTR) continue;
    fail("tcp accept");
  }
}

std::unique_ptr<TcpChannel> TcpListener::accept_for(double timeout_s) {
  if (timeout_s <= 0.0) return accept();
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) throw TransportError("accept on closed listener");
  // Remaining time is recomputed from a monotonic deadline on every
  // pass: an EINTR (or a connection that vanishes from the backlog)
  // must not restart the full timeout, or a signal storm could stall
  // the caller indefinitely past its deadline.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  pollfd pfd{fd, POLLIN, 0};
  for (;;) {
    const auto left = deadline - std::chrono::steady_clock::now();
    const auto left_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(left).count();
    if (left_ms <= 0) {
      throw TransportError("tcp accept timed out after " +
                           std::to_string(timeout_s) + "s");
    }
    const int ready = ::poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      fail("tcp accept poll");
    }
    if (ready == 0) {
      throw TransportError("tcp accept timed out after " +
                           std::to_string(timeout_s) + "s");
    }
    return accept();
  }
}

void TcpListener::close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // close() alone does NOT wake a thread blocked in accept(2); only
    // shutdown() forces the in-flight call to return (with EINVAL).
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

std::unique_ptr<TcpChannel> tcp_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("tcp socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    fail("tcp connect");
  }
  return std::make_unique<TcpChannel>(fd);
}

}  // namespace vdce::dm
