#include "datamgr/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "common/metrics.hpp"

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

TcpChannel::TcpChannel(int fd) : fd_(fd) {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

TcpChannel::~TcpChannel() { ::close(fd_); }

void TcpChannel::send_bytes(std::span<const std::byte> body) {
  if (shut_.load(std::memory_order_acquire)) {
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

std::optional<FrameView> TcpChannel::read_frame() {
  for (;;) {
    std::byte* const into = body_.valid() ? body_.data() + body_fill_
                                          : header_.data() + header_fill_;
    const std::size_t want = body_.valid() ? body_.size() - body_fill_
                                           : header_.size() - header_fill_;
    const ssize_t r = ::recv(fd_, into, want, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        ended_ = std::string("tcp recv: ") + std::strerror(errno);
      }
      return std::nullopt;
    }
    if (r == 0) {
      // Orderly EOF at a frame boundary, else a torn frame.
      const bool torn = body_.valid() || header_fill_ > 0;
      ended_ = torn ? "tcp peer closed mid-message" : "";
      return std::nullopt;
    }
    if (!body_.valid()) {
      header_fill_ += static_cast<std::size_t>(r);
      if (header_fill_ < header_.size()) continue;
      header_fill_ = 0;
      std::uint32_t n = 0;
      for (const std::byte b : header_) {
        n = (n << 8) | static_cast<std::uint8_t>(b);
      }
      // Bounds-check the decoded length before allocating: a corrupt or
      // hostile header must not provoke a giant allocation.
      const std::size_t limit =
          max_message_bytes_.load(std::memory_order_relaxed);
      if (n > limit) {
        ended_ = "tcp frame header claims " + std::to_string(n) +
                 " bytes, above the frame limit of " + std::to_string(limit) +
                 " bytes (corrupt stream?)";
        return std::nullopt;
      }
      body_ = FramePool::global().allocate(n);
      body_fill_ = 0;
    } else {
      body_fill_ += static_cast<std::size_t>(r);
    }
    if (body_fill_ == body_.size()) {
      FrameView frame = body_.view();
      body_.reset();
      return frame;
    }
  }
}

std::optional<FrameView> TcpChannel::receive_frame_for(double timeout_s) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    if (ended_) {
      body_.reset();  // a torn frame's slab goes back to the pool
      if (ended_->empty()) return std::nullopt;
      throw TransportError(*ended_);
    }
    if (auto frame = read_frame()) return frame;
    if (ended_) continue;
    // Dry: wait for bytes.  The wait is recomputed from the deadline on
    // every pass, so an EINTR never restarts the full timeout.
    int wait_ms = -1;  // no deadline: block
    if (timeout_s > 0.0) {
      const std::chrono::duration<double, std::milli> left =
          deadline - Clock::now();
      if (left.count() <= 0.0) {
        common::MetricsRegistry::global()
            .counter("datamgr.deadline_expiries")
            .add(1);
        throw TransportError("tcp receive timed out after " +
                             std::to_string(timeout_s) + "s");
      }
      // Rounded up, so the wait never ends before the deadline.
      wait_ms = static_cast<int>(std::min(std::ceil(left.count()), 1e9));
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, wait_ms) < 0 && errno != EINTR) {
      ended_ = std::string("tcp receive poll: ") + std::strerror(errno);
    }
  }
}

void TcpChannel::set_max_message_bytes(std::size_t limit) {
  common::expects(limit > 0 &&
                      limit <= std::numeric_limits<std::uint32_t>::max(),
                  "frame limit must fit the 4-byte length header");
  max_message_bytes_.store(limit, std::memory_order_relaxed);
}

void TcpChannel::close() {
  // Shut down only: the peer and a receive blocked on this channel get
  // an orderly EOF instead of racing a reused descriptor.  The fd
  // itself is released with the channel.
  if (!shut_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
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

void TcpListener::close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // close() alone does NOT wake a thread blocked in accept(2); only
    // shutdown() forces the in-flight call to return (with EINVAL).
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

TcpServer::~TcpServer() {
  stop();
  join();
}

void TcpServer::start(Session session) {
  session_ = std::move(session);
  gang_.launch([this] { accept_loop(); });
}

void TcpServer::accept_loop() {
  for (;;) {
    std::shared_ptr<TcpChannel> channel;
    try {
      channel = listener_.accept();
    } catch (const TransportError&) {
      {
        const std::lock_guard lock(mu_);
        if (stopping_) return;
      }
      // Transient (the descriptor limit, a connection aborted in the
      // backlog): the listener is still open, so try again shortly.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const std::lock_guard lock(mu_);
    if (stopping_) return;
    live_.insert(channel.get());
    gang_.launch([this, channel] {
      try {
        session_(*channel);
      } catch (const TransportError&) {
        // The connection failed: its session is over.
      }
      const std::lock_guard forget(mu_);
      live_.erase(channel.get());
    });
  }
}

void TcpServer::stop() {
  const std::lock_guard lock(mu_);
  if (stopping_) return;
  stopping_ = true;
  listener_.close();
  for (TcpChannel* channel : live_) channel->close();
}

void TcpServer::join() { gang_.join(); }

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
