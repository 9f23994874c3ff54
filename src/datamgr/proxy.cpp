#include "datamgr/proxy.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/metrics.hpp"
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

/// A reader stops reading its connection once this many bytes sit
/// unconsumed in its link's inbox, and resumes once the consumer drains
/// below the low water, so a slow consumer bounds memory.
constexpr std::size_t kHighWaterBytes = std::size_t{8} << 20;
constexpr std::size_t kLowWaterBytes = std::size_t{1} << 20;
/// Frame-count backstop for floods of tiny messages.
constexpr std::size_t kMaxQueuedFrames = 4096;

/// How often, at most, a sending producer reads its connection for
/// resets: a recv per send would cost a small frame a syscall.
constexpr std::chrono::milliseconds kResetReadInterval{1};

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

/// One link's received frames: its connection's reader publishes them
/// and waits at the high water; the link's consumer drains them.
class RxInbox {
 public:
  /// Publishes one frame.  At the high water, waits until the consumer
  /// drains below the low water or leaves.  False once the consumer has
  /// left: the frame is dropped.
  bool push(FrameView view);

  /// Closes the inbox: pushes fail from now on, and the consumer drains
  /// what is queued, then sees `failure` thrown, or end of stream when
  /// it is empty.  Called by the reader at the link's end, by the
  /// consumer when it leaves.
  void close(const std::string& failure = {});

  /// The Channel receive contract: the next frame, nullopt once the
  /// inbox is closed and drained, TransportError for a recorded failure
  /// or when `timeout_s > 0` passes with nothing queued (counted as a
  /// datamgr.deadline_expiries).
  [[nodiscard]] std::optional<FrameView> receive_for(double timeout_s);

 private:
  std::mutex mu_;
  std::condition_variable readable_;  // the consumer's: a frame or close
  std::condition_variable drained_;   // the reader's: below the low water
  std::deque<FrameView> frames_;
  std::size_t bytes_ = 0;
  bool paused_ = false;  // the reader waits for drained_
  bool closed_ = false;
  std::string failure_;
};

bool RxInbox::push(FrameView view) {
  std::unique_lock lock(mu_);
  if (closed_) return false;
  bytes_ += view.size();
  frames_.push_back(std::move(view));
  paused_ = bytes_ >= kHighWaterBytes || frames_.size() >= kMaxQueuedFrames;
  const bool pause = paused_;
  lock.unlock();
  readable_.notify_one();
  if (pause) {
    lock.lock();
    drained_.wait(lock, [this] { return !paused_ || closed_; });
  }
  return true;
}

void RxInbox::close(const std::string& failure) {
  {
    std::lock_guard lock(mu_);
    if (failure_.empty()) failure_ = failure;
    closed_ = true;
  }
  readable_.notify_all();
  drained_.notify_all();
}

std::optional<FrameView> RxInbox::receive_for(double timeout_s) {
  std::unique_lock lock(mu_);
  const auto ready = [this] { return !frames_.empty() || closed_; };
  const std::chrono::duration<double> timeout(timeout_s);
  if (timeout_s <= 0.0) {
    readable_.wait(lock, ready);
  } else if (!readable_.wait_for(lock, timeout, ready)) {
    lock.unlock();
    metric("datamgr.deadline_expiries").add(1);
    throw TransportError("tcp receive timed out after " +
                         std::to_string(timeout_s) + "s");
  }
  if (frames_.empty()) {
    // Closed and drained: orderly EOF is nullopt, a transport failure
    // re-throws here on the consumer thread.
    if (!failure_.empty()) throw TransportError(failure_);
    return std::nullopt;
  }
  FrameView view = std::move(frames_.front());
  frames_.pop_front();
  bytes_ -= view.size();
  const bool resume =
      paused_ && bytes_ < kLowWaterBytes && frames_.size() < kMaxQueuedFrames;
  if (resume) paused_ = false;
  lock.unlock();
  if (resume) drained_.notify_one();
  return view;
}

/// A producer's connection to a proxy: leased to one link at a time,
/// idle in the pool otherwise.  Only its lessee touches it, and the
/// lessee reads the resets the proxy writes back on it.
class ProxyConnection {
 public:
  ProxyConnection(int socket, std::uint16_t proxy_port)
      : fd(socket), port(proxy_port) {}
  ~ProxyConnection() { ::close(fd); }

  ProxyConnection(const ProxyConnection&) = delete;
  ProxyConnection& operator=(const ProxyConnection&) = delete;

  const int fd;
  const std::uint16_t port;
  /// The socket failed (send error, EOF, garbage): never reused.
  bool failed = false;
  /// The latest link the proxy reset on this connection.  Ids grow
  /// along a connection, so a reset for an earlier link never matches
  /// the link now leased.
  std::uint64_t reset_link = 0;

  /// Reads the resets the socket holds, without blocking.
  void read_resets() {
    while (!failed) {
      const ssize_t r = ::recv(fd, header_.data() + fill_,
                               kHeaderBytes - fill_, MSG_DONTWAIT);
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
      reset_link = argument_of(header_);
    }
    // EOF, a socket error or a frame the proxy never sends.
    failed = true;
  }

 private:
  Header header_{};
  std::size_t fill_ = 0;
};

namespace {

/// The producing end of one link, over a leased connection.
class LinkSender final : public Channel {
 public:
  using Clock = std::chrono::steady_clock;

  LinkSender(CommProxy& proxy, std::unique_ptr<ProxyConnection> connection,
             std::uint64_t link)
      : proxy_(proxy),
        conn_(std::move(connection)),
        link_(link),
        next_reset_read_(Clock::now() + kResetReadInterval) {}

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
    std::unique_ptr<ProxyConnection> conn = std::move(conn_);
    if (!conn->failed) {
      std::array<std::byte, 2 * kHeaderBytes> headers{};
      const std::size_t n = write_open(headers);
      const Header end = proxy_wire::encode(Kind::kEnd, link_);
      std::copy(end.begin(), end.end(), headers.begin() + n);
      try {
        send_all(conn->fd, std::span(headers.data(), n + kHeaderBytes), {});
      } catch (const TransportError&) {
        conn->failed = true;
      }
    }
    // Below the pause thresholds the proxy read this link as fast as it
    // arrived, so none of it can sit ahead of the next link's frames.
    // A link past them may have stopped its reader behind a consumer
    // that has not read it yet: end the connection rather than queue
    // the next link behind those bytes.
    const bool drained =
        frames_ < kMaxQueuedFrames && bytes_sent() < kHighWaterBytes;
    proxy_.release(std::move(conn), drained);
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
    if (const Clock::time_point now = Clock::now(); now >= next_reset_read_) {
      conn_->read_resets();
      next_reset_read_ = now + kResetReadInterval;
    }
    if (conn_->failed) throw TransportError("proxy connection lost");
    if (conn_->reset_link == link_) {
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
      conn_->failed = true;
      throw;
    }
    bytes_sent_.fetch_add(body.size(), std::memory_order_relaxed);
    ++frames_;
  }

  CommProxy& proxy_;
  std::unique_ptr<ProxyConnection> conn_;  // null once closed
  const std::uint64_t link_;
  bool opened_ = false;
  std::size_t frames_ = 0;
  Clock::time_point next_reset_read_;
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
  /// its frames discarded (its reader resumes if it was waiting).
  void close() override {
    if (closed_.exchange(true)) return;
    proxy_.forget(link_);
    inbox_->close();
  }

  std::size_t bytes_sent() const override { return 0; }

 private:
  CommProxy& proxy_;
  const std::uint64_t link_;
  std::shared_ptr<RxInbox> inbox_;
  std::atomic<bool> closed_{false};
};

/// The proxy's side of one accepted connection, read by a thread
/// blocked on it: routes each link's frames into its inbox, one link at
/// a time.
class InboundConnection {
 public:
  InboundConnection(CommProxy& proxy, int fd) : proxy_(proxy), fd_(fd) {}
  ~InboundConnection() { ::close(fd_); }

  InboundConnection(const InboundConnection&) = delete;
  InboundConnection& operator=(const InboundConnection&) = delete;

  /// Reads frames until the connection ends or breaks, which fails the
  /// bound link, if any.
  void serve() {
    Header header{};
    while (read(header) && on_header(header)) {
    }
    if (inbox_) inbox_->close(failure_);
  }

 private:
  /// Fills `into` from the socket; false once the stream ends or breaks,
  /// with failure_ saying how.
  bool read(std::span<std::byte> into);
  /// False when the header ends the connection.
  bool on_header(const Header& header);
  bool on_data(std::size_t size);
  bool discard(std::size_t size);
  void refuse();
  bool fail(std::string what) {
    failure_ = std::move(what);
    return false;
  }

  CommProxy& proxy_;
  const int fd_;
  std::uint64_t link_ = 0;          // the bound link; 0 between links
  std::shared_ptr<RxInbox> inbox_;  // its inbox, while its consumer takes
  bool reset_sent_ = false;         // for the bound link
  std::string failure_;
};

bool InboundConnection::read(std::span<std::byte> into) {
  std::size_t got = 0;
  while (got < into.size()) {
    // MSG_WAITALL: a large body arrives in one call, not one per
    // socket-buffer fill.
    const ssize_t r =
        ::recv(fd_, into.data() + got, into.size() - got, MSG_WAITALL);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
    } else if (r == 0) {
      return fail("proxy connection closed mid-link");
    } else if (errno != EINTR) {
      return fail(std::string("proxy recv: ") + std::strerror(errno));
    }
  }
  return true;
}

bool InboundConnection::on_header(const Header& header) {
  if (header[0] != std::byte{proxy_wire::kMagic}) {
    return fail("proxy frame with a bad magic byte (corrupt stream?)");
  }
  const std::uint64_t arg = argument_of(header);
  switch (static_cast<Kind>(header[1])) {
    case Kind::kOpen:
      if (link_ != 0) {
        return fail("proxy open for link " + std::to_string(arg) +
                    " while link " + std::to_string(link_) + " is bound");
      }
      link_ = arg;
      reset_sent_ = false;
      inbox_ = proxy_.claim(arg);
      // Unknown, already opened, or its consumer closed.
      if (!inbox_) refuse();
      return true;
    case Kind::kData:
      if (link_ == 0) return fail("proxy data frame outside a link");
      if (arg > kMaxFrameBytes) {
        return fail("proxy frame header claims " + std::to_string(arg) +
                    " bytes, above the frame limit of " +
                    std::to_string(kMaxFrameBytes) +
                    " bytes (corrupt stream?)");
      }
      return on_data(static_cast<std::size_t>(arg));
    case Kind::kEnd:
      if (arg != link_ || link_ == 0) {
        return fail("proxy end for link " + std::to_string(arg) +
                    " while link " + std::to_string(link_) + " is bound");
      }
      if (inbox_) inbox_->close();  // orderly end of stream
      inbox_.reset();
      link_ = 0;
      return true;
    case Kind::kReset:
      break;
  }
  return fail("proxy frame of unknown kind (corrupt stream?)");
}

bool InboundConnection::on_data(std::size_t size) {
  if (!inbox_) return discard(size);
  Frame body = FramePool::global().allocate(size);
  if (!read(std::span(body.data(), size))) return false;
  if (inbox_->push(body.view())) return true;
  // The consumer left before the producer finished: discard the rest of
  // the link up to its end marker, and tell the producer.
  inbox_.reset();
  refuse();
  return true;
}

bool InboundConnection::discard(std::size_t size) {
  std::array<std::byte, 64 * 1024> sink;  // this reader's own; never read
  while (size > 0) {
    const std::size_t n = std::min(size, sink.size());
    if (!read(std::span(sink.data(), n))) return false;
    size -= n;
  }
  return true;
}

void InboundConnection::refuse() {
  if (reset_sent_) return;
  reset_sent_ = true;
  static common::Counter& resets = metric("datamgr.proxy.resets");
  resets.add(1);
  // The producer reads resets on every lease and while it sends, so ten
  // bytes always fit the socket buffer; a failure here can only mean the
  // connection is going away, which the next read reports.
  const Header reset = proxy_wire::encode(Kind::kReset, link_);
  [[maybe_unused]] const ssize_t w =
      ::send(fd_, reset.data(), reset.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

}  // namespace

CommProxy::CommProxy() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
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
  readers_.launch([this, fd] { accept_loop(fd); });
}

void CommProxy::accept_loop(int listener) {
  // Not a TcpServer: its sessions read length-prefixed TcpChannels, and
  // its stop and join would never run for a proxy that lives as long as
  // the process.
  for (;;) {
    const int fd = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      set_nodelay(fd);
      readers_.launch([this, fd] { InboundConnection(*this, fd).serve(); });
    } else if (errno != EINTR && errno != ECONNABORTED) {
      // Out of descriptors for now: connects wait in the backlog.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
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

std::unique_ptr<ProxyConnection> CommProxy::acquire(std::uint16_t port) {
  static common::Counter& opened = metric("datamgr.proxy.connections_opened");
  for (;;) {
    std::unique_ptr<ProxyConnection> conn;
    {
      std::lock_guard lock(idle_mu_);
      auto& idle = idle_[port];
      if (idle.empty()) break;
      conn = std::move(idle.back());
      idle.pop_back();
    }
    conn->read_resets();
    if (!conn->failed) return conn;
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
  opened.add(1);
  return std::make_unique<ProxyConnection>(fd, port);
}

void CommProxy::release(std::unique_ptr<ProxyConnection> connection,
                        bool reusable) {
  if (reusable && !connection->failed) {
    std::lock_guard lock(idle_mu_);
    idle_[connection->port].push_back(std::move(connection));
    return;
  }
  // Closed with a reset unread, the socket would answer with an RST that
  // drops the frames it still has in flight to the proxy.
  connection->read_resets();
}

}  // namespace vdce::dm
