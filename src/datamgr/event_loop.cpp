#include "datamgr/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace vdce::dm {

using common::TransportError;

// -- RxInbox --------------------------------------------------------------

std::string RxInbox::take_error() {
  std::lock_guard lock(error_mu);
  return error;
}

std::optional<FrameView> RxInbox::receive_for(double timeout_s) {
  auto finish = [this](std::optional<FrameView> view)
      -> std::optional<FrameView> {
    if (view) {
      const std::size_t before =
          queued_bytes.fetch_sub(view->size(), std::memory_order_acq_rel);
      if (paused.load() &&
          before - view->size() < TcpEventLoop::kLowWaterBytes) {
        TcpEventLoop::global().rearm(feeder_fd.load());
      }
      return view;
    }
    // Queue closed and drained: orderly EOF is nullopt, a transport
    // failure re-throws here on the consumer thread.
    const std::string failure = take_error();
    if (!failure.empty()) throw TransportError(failure);
    return std::nullopt;
  };

  if (timeout_s <= 0.0) return finish(queue.pop());
  auto view = queue.pop_for(std::chrono::duration<double>(timeout_s));
  if (view) return finish(std::move(view));
  // pop_for returns nullopt both on timeout and on close; only the
  // former is a deadline expiry.
  if (auto late = queue.try_pop()) return finish(std::move(late));
  if (queue.closed()) return finish(std::nullopt);
  common::MetricsRegistry::global()
      .counter("datamgr.deadline_expiries")
      .add(1);
  throw TransportError("tcp receive timed out after " +
                       std::to_string(timeout_s) + "s");
}

// -- InboxFeed ------------------------------------------------------------

void InboxFeed::bind(std::shared_ptr<RxInbox> inbox) {
  inbox_ = std::move(inbox);
}

void InboxFeed::unbind() { inbox_.reset(); }

InboxFeed::State InboxFeed::deliver(TcpEventLoop& loop, int fd,
                                    LoopReader& reader, FrameView view) {
  RxInbox& in = *inbox_;
  const std::size_t bytes = view.size();
  in.queued_bytes.fetch_add(bytes, std::memory_order_release);
  if (!in.queue.push(std::move(view))) {
    // The consumer closed: drop the frame and its accounting.
    in.queued_bytes.fetch_sub(bytes, std::memory_order_release);
    return State::kConsumerGone;
  }
  if (in.queued_bytes.load(std::memory_order_acquire) >=
          TcpEventLoop::kHighWaterBytes ||
      in.queue.size() >= TcpEventLoop::kMaxQueuedFrames) {
    in.paused.store(true);
    loop.disarm(fd, reader);
    // Re-check: the consumer may have drained or closed (and skipped
    // its re-arm, seeing paused == false) between the push above and
    // the pause.
    if ((in.queued_bytes.load(std::memory_order_acquire) <
             TcpEventLoop::kLowWaterBytes &&
         in.queue.size() < TcpEventLoop::kMaxQueuedFrames) ||
        in.queue.closed()) {
      in.paused.store(false);
      loop.arm(fd, reader);
    } else {
      return State::kPaused;
    }
  }
  return State::kReading;
}

void InboxFeed::finish(const std::string& error) {
  if (!error.empty()) {
    std::lock_guard lock(inbox_->error_mu);
    if (inbox_->error.empty()) inbox_->error = error;
  }
  // Close AFTER the error is recorded: consumers drain queued frames,
  // hit nullopt, then check for an error to re-throw.
  inbox_->queue.close();
}

// -- TcpEventLoop ---------------------------------------------------------

TcpEventLoop::TcpEventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw TransportError(std::string("epoll_create1: ") +
                         std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw TransportError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  thread_ = std::thread([this] { run(); });
}

TcpEventLoop::~TcpEventLoop() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  // Any still-registered fds belong to owners that never called
  // remove(); close them so a short-lived non-global loop cannot leak.
  for (auto& [fd, reader] : readers_) ::close(fd);
}

void TcpEventLoop::stop() {
  if (!stop_.exchange(true)) wake();
  if (thread_.joinable()) thread_.join();
}

void TcpEventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void TcpEventLoop::enqueue(Op op) {
  {
    std::lock_guard lock(mu_);
    ops_.push_back(std::move(op));
  }
  wake();
}

void TcpEventLoop::add(int fd, std::shared_ptr<LoopReader> reader) {
  registered_.fetch_add(1, std::memory_order_relaxed);
  enqueue(Op{Op::Kind::kAdd, fd, std::move(reader)});
}

void TcpEventLoop::remove(int fd) {
  registered_.fetch_sub(1, std::memory_order_relaxed);
  enqueue(Op{Op::Kind::kRemove, fd, nullptr});
}

void TcpEventLoop::rearm(int fd) {
  enqueue(Op{Op::Kind::kRearm, fd, nullptr});
}

std::size_t TcpEventLoop::channel_count() const {
  return registered_.load(std::memory_order_relaxed);
}

void TcpEventLoop::adopt(int fd, std::shared_ptr<LoopReader> reader) {
  registered_.fetch_add(1, std::memory_order_relaxed);
  LoopReader& r = *reader;
  readers_.emplace(fd, std::move(reader));
  arm(fd, r);
}

void TcpEventLoop::drop(int fd, LoopReader& reader) {
  // Out of the interest set now; unregistered and closed by the op, so
  // no event of this batch can reach a newcomer on the same fd number.
  disarm(fd, reader);
  remove(fd);
}

void TcpEventLoop::arm(int fd, LoopReader& reader) {
  if (reader.armed_) return;
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: unread bytes keep firing
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
    reader.armed_ = true;
    return;
  }
  unwatchable_.emplace_back(fd, std::string("epoll add: ") +
                                    std::strerror(errno));
}

void TcpEventLoop::disarm(int fd, LoopReader& reader) {
  if (!reader.armed_) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  reader.armed_ = false;
}

void TcpEventLoop::apply_ops() {
  std::vector<Op> ops;
  {
    std::lock_guard lock(mu_);
    ops.swap(ops_);
  }
  for (Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::kAdd: {
        LoopReader& r = *op.reader;
        readers_.emplace(op.fd, std::move(op.reader));
        arm(op.fd, r);
        break;
      }
      case Op::Kind::kRemove: {
        const auto it = readers_.find(op.fd);
        if (it != readers_.end()) {
          disarm(op.fd, *it->second);
          readers_.erase(it);
        }
        ::close(op.fd);
        break;
      }
      case Op::Kind::kRearm: {
        const auto it = readers_.find(op.fd);
        if (it != readers_.end()) it->second->on_rearm(*this, op.fd);
        break;
      }
    }
  }
}

void TcpEventLoop::run() {
  std::array<epoll_event, 64> events{};
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: only happens at teardown
    }
    // Service the current batch BEFORE applying ops: an op may close an
    // fd whose number the kernel could reuse, and a stale event must
    // never be routed to a newcomer's parse state.
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      const auto it = readers_.find(fd);
      if (it == readers_.end()) continue;
      // Not it->second across the call: an accept may rehash readers_.
      // The reader itself lives on, as only apply_ops() erases.
      LoopReader* const reader = it->second.get();
      if (reader->armed_) reader->on_readable(*this, fd);
    }
    apply_ops();
    if (unwatchable_.empty()) continue;
    for (const auto& [fd, what] : std::exchange(unwatchable_, {})) {
      const auto it = readers_.find(fd);
      if (it != readers_.end()) it->second->on_unwatchable(*this, fd, what);
    }
  }
}

TcpEventLoop& TcpEventLoop::global() {
  static TcpEventLoop* loop = [] {
    // Force the registry and pool into existence first: their function-
    // local statics are destroyed after this atexit handler runs, so
    // the loop thread never touches a dead registry.
    (void)common::MetricsRegistry::global();
    (void)FramePool::global();
    auto* l = new TcpEventLoop;  // leaked on purpose
    std::atexit([] { TcpEventLoop::global().stop(); });
    return l;
  }();
  return *loop;
}

}  // namespace vdce::dm
