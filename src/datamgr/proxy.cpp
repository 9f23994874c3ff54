#include "datamgr/proxy.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "datamgr/event_loop.hpp"
#include "datamgr/tcp.hpp"

namespace vdce::dm {

using common::TransportError;

namespace proxy_wire {

Header encode(Kind kind, std::uint64_t argument) {
  Header h{};
  h[0] = std::byte{kMagic};
  h[1] = std::byte{static_cast<std::uint8_t>(kind)};
  for (std::size_t i = 0; i < 8; ++i) {
    h[2 + i] = std::byte{static_cast<std::uint8_t>(argument >> (56 - 8 * i))};
  }
  return h;
}

}  // namespace proxy_wire

namespace {

using proxy_wire::Header;
using proxy_wire::Kind;
using proxy_wire::kHeaderBytes;

/// Largest data frame either side accepts: a corrupt length must not
/// provoke a giant allocation.
constexpr std::size_t kMaxFrameBytes = TcpChannel::kDefaultMaxMessageBytes;

common::Counter& metric(const char* name) {
  return common::MetricsRegistry::global().counter(name);
}

std::uint64_t argument_of(const Header& h) {
  std::uint64_t v = 0;
  for (std::size_t i = 2; i < kHeaderBytes; ++i) {
    v = (v << 8) | static_cast<std::uint8_t>(h[i]);
  }
  return v;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// A producer's connection to a proxy: leased to one link at a time,
/// idle in the pool otherwise.  The loop reads the resets the proxy
/// writes back on it.
class ProxyConnection final : public LoopReader {
 public:
  ProxyConnection(int socket, std::uint16_t proxy_port)
      : fd(socket), port(proxy_port) {}

  const int fd;
  const std::uint16_t port;
  /// The socket failed (send error, EOF, garbage): never reused.
  std::atomic<bool> failed{false};
  /// The latest link the proxy reset on this connection.  Ids grow
  /// along a connection, so a reset for an earlier link never matches
  /// the link now leased.
  std::atomic<std::uint64_t> reset_link{0};

  void on_readable(TcpEventLoop& loop, int fd_in) override {
    for (;;) {
      const ssize_t r =
          ::recv(fd_in, header_.data() + fill_, kHeaderBytes - fill_, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      }
      if (r <= 0) break;
      fill_ += static_cast<std::size_t>(r);
      if (fill_ < kHeaderBytes) continue;
      fill_ = 0;
      if (header_[0] != std::byte{proxy_wire::kMagic} ||
          header_[1] != std::byte{static_cast<std::uint8_t>(Kind::kReset)}) {
        break;
      }
      reset_link.store(argument_of(header_));
    }
    // EOF, a socket error or a frame the proxy never sends.
    failed.store(true);
    loop.disarm(fd_in, *this);
  }

  void on_unwatchable(TcpEventLoop&, int, const std::string&) override {
    failed.store(true);  // resets could no longer reach it
  }

 private:
  Header header_{};
  std::size_t fill_ = 0;
};

namespace {

/// The producing end of one link, over a leased connection.
class LinkSender final : public Channel {
 public:
  LinkSender(CommProxy& proxy, std::shared_ptr<ProxyConnection> connection,
             std::uint64_t link)
      : proxy_(proxy), conn_(std::move(connection)), link_(link) {}

  ~LinkSender() override { close(); }

  /// Straight out of the caller's buffer: no pooled copy first.
  void send(std::span<const std::byte> message) override {
    send_bytes(message);
  }

  void send_frame(const FrameView& frame) override {
    send_bytes(frame.bytes());  // straight out of the pooled slab
  }

  std::optional<FrameView> receive_frame_for(double) override {
    throw TransportError("receive on the sending end of a proxy link");
  }

  /// Writes the end marker and returns the connection at once.
  void close() override {
    if (!conn_) return;
    const std::shared_ptr<ProxyConnection> conn = std::move(conn_);
    if (!conn->failed.load()) {
      std::array<std::byte, 2 * kHeaderBytes> headers{};
      const std::size_t n = write_open(headers);
      const Header end = proxy_wire::encode(Kind::kEnd, link_);
      std::copy(end.begin(), end.end(), headers.begin() + n);
      try {
        send_all(conn->fd, std::span(headers.data(), n + kHeaderBytes), {});
      } catch (const TransportError&) {
        conn->failed.store(true);
      }
    }
    // Below the pause thresholds the proxy read this link as fast as it
    // arrived, so none of it can sit ahead of the next link's frames.
    // A link past them may have paused the connection behind a consumer
    // that has not read it yet: end the connection rather than queue
    // the next link behind those bytes.
    const bool drained = frames_ < TcpEventLoop::kMaxQueuedFrames &&
                         bytes_sent() < TcpEventLoop::kHighWaterBytes;
    proxy_.release(conn, drained);
  }

  std::size_t bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }

 private:
  /// The open header, once per link, ahead of its first frame.
  std::size_t write_open(std::array<std::byte, 2 * kHeaderBytes>& headers) {
    if (opened_) return 0;
    opened_ = true;
    const Header open = proxy_wire::encode(Kind::kOpen, link_);
    std::copy(open.begin(), open.end(), headers.begin());
    return kHeaderBytes;
  }

  void send_bytes(std::span<const std::byte> body) {
    if (!conn_) throw TransportError("send on closed proxy link");
    if (conn_->failed.load()) {
      throw TransportError("proxy connection lost");
    }
    if (conn_->reset_link.load() == link_) {
      throw TransportError("proxy link reset: its consumer has closed");
    }
    if (body.size() > kMaxFrameBytes) {
      throw TransportError("tcp message of " + std::to_string(body.size()) +
                           " bytes exceeds the frame limit of " +
                           std::to_string(kMaxFrameBytes) + " bytes");
    }
    std::array<std::byte, 2 * kHeaderBytes> headers{};
    const std::size_t n = write_open(headers);
    const Header data = proxy_wire::encode(Kind::kData, body.size());
    std::copy(data.begin(), data.end(), headers.begin() + n);
    try {
      send_all(conn_->fd, std::span(headers.data(), n + kHeaderBytes), body);
    } catch (const TransportError&) {
      conn_->failed.store(true);
      throw;
    }
    bytes_sent_.fetch_add(body.size(), std::memory_order_relaxed);
    ++frames_;
  }

  CommProxy& proxy_;
  std::shared_ptr<ProxyConnection> conn_;  // null once closed
  const std::uint64_t link_;
  bool opened_ = false;
  std::size_t frames_ = 0;
  std::atomic<std::size_t> bytes_sent_{0};
};

/// The consuming end of one link: receives drain the link's inbox.
class LinkReceiver final : public Channel {
 public:
  LinkReceiver(CommProxy& proxy, std::uint64_t link,
               std::shared_ptr<RxInbox> inbox)
      : proxy_(proxy), link_(link), inbox_(std::move(inbox)) {}

  ~LinkReceiver() override { close(); }

  void send_frame(const FrameView&) override {
    throw TransportError("send on a receive-only channel");
  }

  std::optional<FrameView> receive_frame_for(double timeout_s) override {
    return inbox_->receive_for(timeout_s);
  }

  /// Pending receives drain, then return nullopt.  A producer that
  /// opens the link from now on is refused, and one still sending has
  /// its frames discarded (resumed if its connection was paused).
  void close() override {
    if (closed_.exchange(true)) return;
    proxy_.forget(link_);
    inbox_->queue.close();
    if (inbox_->paused.load()) {
      TcpEventLoop::global().rearm(inbox_->feeder_fd.load());
    }
  }

  std::size_t bytes_sent() const override { return 0; }

 private:
  CommProxy& proxy_;
  const std::uint64_t link_;
  std::shared_ptr<RxInbox> inbox_;
  std::atomic<bool> closed_{false};
};

/// The proxy's side of one accepted connection: routes each link's
/// frames into its inbox, one link at a time.
class InboundConnection final : public LoopReader {
 public:
  explicit InboundConnection(CommProxy& proxy) : proxy_(proxy) {}

  void on_readable(TcpEventLoop& loop, int fd) override;

  void on_rearm(TcpEventLoop& loop, int fd) override {
    if (!feeding_ || !feed_.inbox().paused.load()) return;
    feed_.inbox().paused.store(false);
    loop.arm(fd, *this);
  }

  void on_unwatchable(TcpEventLoop& loop, int fd,
                      const std::string& what) override {
    lose(loop, fd, what);
  }

 private:
  enum class Phase : std::uint8_t { kHeader, kBody, kSkip };

  bool on_header(TcpEventLoop& loop, int fd);
  bool deliver(TcpEventLoop& loop, int fd);
  void consumer_gone(int fd);
  void refuse(int fd);
  void lose(TcpEventLoop& loop, int fd, const std::string& what);

  CommProxy& proxy_;
  Header header_{};
  std::size_t header_fill_ = 0;
  Phase phase_ = Phase::kHeader;
  Frame body_;
  std::size_t body_fill_ = 0;
  std::uint64_t skip_left_ = 0;
  std::uint64_t link_ = 0;   // the bound link; 0 between links
  bool feeding_ = false;     // the bound link's consumer takes its frames
  bool reset_sent_ = false;  // for the bound link
  InboxFeed feed_;
};

void InboundConnection::on_readable(TcpEventLoop& loop, int fd) {
  // Discarded payload bytes land here (loop thread only).
  static std::array<std::byte, 64 * 1024> scratch;
  for (;;) {
    std::byte* dst = nullptr;
    std::size_t want = 0;
    switch (phase_) {
      case Phase::kHeader:
        dst = header_.data() + header_fill_;
        want = kHeaderBytes - header_fill_;
        break;
      case Phase::kBody:
        dst = body_.data() + body_fill_;
        want = body_.size() - body_fill_;
        break;
      case Phase::kSkip:
        dst = scratch.data();
        want = static_cast<std::size_t>(
            std::min<std::uint64_t>(skip_left_, scratch.size()));
        break;
    }
    const ssize_t r = ::recv(fd, dst, want, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      lose(loop, fd, std::string("proxy recv: ") + std::strerror(errno));
      return;
    }
    if (r == 0) {
      lose(loop, fd, "proxy connection closed mid-link");
      return;
    }
    const auto got = static_cast<std::size_t>(r);
    switch (phase_) {
      case Phase::kHeader:
        header_fill_ += got;
        if (header_fill_ < kHeaderBytes) break;
        header_fill_ = 0;
        if (!on_header(loop, fd)) return;
        break;
      case Phase::kBody:
        body_fill_ += got;
        if (body_fill_ == body_.size() && !deliver(loop, fd)) return;
        break;
      case Phase::kSkip:
        skip_left_ -= got;
        if (skip_left_ == 0) phase_ = Phase::kHeader;
        break;
    }
  }
}

bool InboundConnection::on_header(TcpEventLoop& loop, int fd) {
  if (header_[0] != std::byte{proxy_wire::kMagic}) {
    lose(loop, fd, "proxy frame with a bad magic byte (corrupt stream?)");
    return false;
  }
  const std::uint64_t arg = argument_of(header_);
  switch (static_cast<Kind>(header_[1])) {
    case Kind::kOpen:
      if (link_ != 0) {
        lose(loop, fd,
             "proxy open for link " + std::to_string(arg) + " while link " +
                 std::to_string(link_) + " is bound");
        return false;
      }
      link_ = arg;
      reset_sent_ = false;
      if (auto inbox = proxy_.claim(arg)) {
        inbox->feeder_fd.store(fd);
        feed_.bind(std::move(inbox));
        feeding_ = true;
      } else {
        refuse(fd);  // unknown, already opened, or its consumer closed
      }
      return true;
    case Kind::kData:
      if (link_ == 0) {
        lose(loop, fd, "proxy data frame outside a link");
        return false;
      }
      if (arg > kMaxFrameBytes) {
        lose(loop, fd,
             "proxy frame header claims " + std::to_string(arg) +
                 " bytes, above the frame limit of " +
                 std::to_string(kMaxFrameBytes) + " bytes (corrupt stream?)");
        return false;
      }
      if (!feeding_) {
        refuse(fd);
        skip_left_ = arg;
        if (arg > 0) phase_ = Phase::kSkip;
        return true;
      }
      body_ = FramePool::global().allocate(static_cast<std::size_t>(arg));
      body_fill_ = 0;
      phase_ = Phase::kBody;
      return arg > 0 || deliver(loop, fd);
    case Kind::kEnd:
      if (arg != link_ || link_ == 0) {
        lose(loop, fd,
             "proxy end for link " + std::to_string(arg) + " while link " +
                 std::to_string(link_) + " is bound");
        return false;
      }
      if (feeding_) {
        feed_.finish("");  // orderly end of stream
        feed_.unbind();
        feeding_ = false;
      }
      link_ = 0;
      return true;
    case Kind::kReset:
      break;
  }
  lose(loop, fd, "proxy frame of unknown kind (corrupt stream?)");
  return false;
}

bool InboundConnection::deliver(TcpEventLoop& loop, int fd) {
  phase_ = Phase::kHeader;
  FrameView view = body_.view();
  body_.reset();
  switch (feed_.deliver(loop, fd, *this, std::move(view))) {
    case InboxFeed::State::kReading:
      return true;
    case InboxFeed::State::kPaused:
      return false;  // until the consumer re-arms
    case InboxFeed::State::kConsumerGone:
      consumer_gone(fd);
      return true;
  }
  return true;
}

void InboundConnection::consumer_gone(int fd) {
  // The consumer left before the producer finished: discard the rest of
  // the link up to its end marker, and tell the producer.
  feed_.unbind();
  feeding_ = false;
  refuse(fd);
}

void InboundConnection::refuse(int fd) {
  if (reset_sent_) return;
  reset_sent_ = true;
  static common::Counter& resets = metric("datamgr.proxy.resets");
  resets.add(1);
  // The producer's loop drains resets as they come, so ten bytes always
  // fit the socket buffer; a failure here can only mean the connection
  // is going away, which its next read reports.
  const Header reset = proxy_wire::encode(Kind::kReset, link_);
  [[maybe_unused]] const ssize_t w =
      ::send(fd, reset.data(), reset.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

void InboundConnection::lose(TcpEventLoop& loop, int fd,
                             const std::string& what) {
  if (feeding_) {
    feed_.finish(what);
    feed_.unbind();
    feeding_ = false;
  }
  body_.reset();
  link_ = 0;
  loop.drop(fd, *this);
}

/// The proxy's listening socket; the loop thread accepts.
class ProxyListener final : public LoopReader {
 public:
  explicit ProxyListener(CommProxy& proxy) : proxy_(proxy) {}

  void on_readable(TcpEventLoop& loop, int fd) override {
    for (;;) {
      const int conn =
          ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (conn < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // drained (EAGAIN), or out of descriptors for now
      }
      set_nodelay(conn);
      loop.adopt(conn, std::make_shared<InboundConnection>(proxy_));
    }
  }

  void on_unwatchable(TcpEventLoop&, int, const std::string& what) override {
    // Connects still complete into the backlog, but nothing accepts
    // them: every TCP link of the process would wait out its deadline.
    common::log_error("datamgr", "communication proxy cannot accept: ", what);
  }

 private:
  CommProxy& proxy_;
};

}  // namespace

CommProxy::CommProxy() {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw TransportError(std::string("proxy socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-assigned
  socklen_t len = sizeof(addr);
  // A cold gang opens dozens of links at once; a full accept queue
  // would drop a SYN and stall its connect for the retransmit timeout.
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0 ||
      ::listen(fd, SOMAXCONN) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    throw TransportError("proxy listen: " + error);
  }
  port_ = ntohs(addr.sin_port);
  TcpEventLoop::global().add(fd, std::make_shared<ProxyListener>(*this));
}

CommProxy& CommProxy::global() {
  static CommProxy* proxy = new CommProxy;  // leaked on purpose
  return *proxy;
}

CommProxy::Link CommProxy::open_link() {
  auto inbox = std::make_shared<RxInbox>();
  const std::uint64_t id = next_link_.fetch_add(1);
  {
    std::lock_guard lock(links_mu_);
    links_.emplace(id, inbox);
  }
  return Link{ProxyAddress{port_, id},
              std::make_shared<LinkReceiver>(*this, id, std::move(inbox))};
}

std::shared_ptr<RxInbox> CommProxy::claim(std::uint64_t link) {
  std::lock_guard lock(links_mu_);
  const auto it = links_.find(link);
  if (it == links_.end()) return nullptr;
  std::shared_ptr<RxInbox> inbox = std::move(it->second);
  links_.erase(it);
  return inbox;
}

void CommProxy::forget(std::uint64_t link) {
  std::lock_guard lock(links_mu_);
  links_.erase(link);
}

std::shared_ptr<Channel> CommProxy::lease(const ProxyAddress& address) {
  static common::Counter& links = metric("datamgr.proxy.links");
  auto conn = acquire(address.port);
  links.add(1);
  return std::make_shared<LinkSender>(*this, std::move(conn), address.link);
}

std::shared_ptr<ProxyConnection> CommProxy::acquire(std::uint16_t port) {
  static common::Counter& opened = metric("datamgr.proxy.connections_opened");
  {
    std::lock_guard lock(idle_mu_);
    auto& idle = idle_[port];
    while (!idle.empty()) {
      std::shared_ptr<ProxyConnection> conn = std::move(idle.back());
      idle.pop_back();
      if (!conn->failed.load()) return conn;
      TcpEventLoop::global().remove(conn->fd);
    }
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw TransportError(std::string("proxy socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    throw TransportError("proxy connect to port " + std::to_string(port) +
                         ": " + error);
  }
  set_nodelay(fd);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  auto conn = std::make_shared<ProxyConnection>(fd, port);
  TcpEventLoop::global().add(fd, conn);
  opened.add(1);
  return conn;
}

void CommProxy::release(std::shared_ptr<ProxyConnection> connection,
                        bool reusable) {
  if (!reusable || connection->failed.load()) {
    TcpEventLoop::global().remove(connection->fd);
    return;
  }
  std::lock_guard lock(idle_mu_);
  idle_[connection->port].push_back(std::move(connection));
}

}  // namespace vdce::dm
