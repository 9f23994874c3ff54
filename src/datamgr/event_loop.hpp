// Single-threaded epoll event loop for the communication proxy's
// sockets (design D13).
//
// A proxy socket has no thread of its own waiting on it, so the loop
// does the waiting: one thread owns an epoll set over every registered
// fd and hands each readable fd to its LoopReader -- the proxy's
// listener, whose accepts the loop performs, or one of the persistent
// connections that carry one link at a time (proxy.cpp).  A reader
// parses frames into pooled Frames and publishes FrameViews into an
// RxInbox; a link's receives are condition-variable waits on that
// inbox, so the Channel contract (deadlines, orderly EOF as nullopt,
// errors as TransportError, clear_app abort) holds.  The control
// plane's TcpChannels do not come here: each already has a thread
// blocked on it, so that thread reads the socket (tcp.hpp).
//
// Threading rules:
//   * All epoll registration changes and all parse-state mutation
//     happen on the loop thread.  Other threads communicate through an
//     op queue plus an eventfd wakeup.
//   * The loop owns every registered fd and closes it when its owner
//     asks for removal.
//   * Backpressure: a connection that outruns its consumer is paused
//     (dropped from the epoll set) at a byte high-water mark and
//     re-armed by the consumer once it drains below the low-water mark,
//     so a slow consumer bounds memory instead of ballooning its queue.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/queue.hpp"
#include "datamgr/frame.hpp"

namespace vdce::dm {

class TcpEventLoop;

/// The consumer-facing half of one socket receive: the queue a
/// channel's receives wait on, its byte accounting, its pause flag and
/// its error.  The loop thread publishes into it (InboxFeed); one
/// receiving channel drains it.
struct RxInbox {
  common::MessageQueue<FrameView> queue;
  std::atomic<std::size_t> queued_bytes{0};
  /// Set while the connection feeding this inbox is paused for it.
  std::atomic<bool> paused{false};
  /// That connection: where the consumer's re-arm goes.
  std::atomic<int> feeder_fd{-1};

  /// Set (under error_mu) before queue.close() on a transport failure;
  /// the consumer re-throws it once the queue drains.
  std::mutex error_mu;
  std::string error;

  [[nodiscard]] std::string take_error();

  /// The Channel receive contract: the next frame, nullopt once the
  /// queue is closed and drained, TransportError for a recorded failure
  /// or when `timeout_s > 0` passes with nothing queued (counted as a
  /// datamgr.deadline_expiries).  Re-arms a paused feeder once the
  /// consumer drains below the low water.
  [[nodiscard]] std::optional<FrameView> receive_for(double timeout_s);
};

/// A registered fd's reader.  Every method runs on the loop thread.
class LoopReader {
 public:
  virtual ~LoopReader() = default;

  /// The fd is readable (level-triggered: unread bytes fire again).
  virtual void on_readable(TcpEventLoop& loop, int fd) = 0;

  /// A consumer asked to resume reading after a backpressure pause.
  /// Must be harmless when nothing is paused.
  virtual void on_rearm(TcpEventLoop& /*loop*/, int /*fd*/) {}

  /// The loop cannot watch the fd (epoll refused it): it will never be
  /// read.  Called after the event batch, never from inside a reader.
  virtual void on_unwatchable(TcpEventLoop& loop, int fd,
                              const std::string& what) = 0;

 private:
  friend class TcpEventLoop;
  bool armed_ = false;  // fd currently in the epoll interest set
};

/// The loop-thread side of publishing into one inbox: every parsed
/// frame is published as it is parsed (one queue lock and one notify
/// each); at the high water the feeding fd is paused.
class InboxFeed {
 public:
  enum class State : std::uint8_t { kReading, kPaused, kConsumerGone };

  /// Starts feeding `inbox` (the feed is idle until bound).
  void bind(std::shared_ptr<RxInbox> inbox);
  void unbind();
  [[nodiscard]] RxInbox& inbox() { return *inbox_; }

  /// Publishes one parsed frame from `fd` and pauses the fd at the
  /// high water.  kConsumerGone: the consumer has closed and the frame
  /// was dropped.
  State deliver(TcpEventLoop& loop, int fd, LoopReader& reader,
                FrameView view);

  /// Records `error` (empty: orderly end of stream) and closes the
  /// inbox.
  void finish(const std::string& error);

 private:
  std::shared_ptr<RxInbox> inbox_;
};

/// The epoll loop servicing every socket receive.  One instance (and
/// one thread) per process; see global().
class TcpEventLoop {
 public:
  /// Pause reading a connection once this many bytes sit unconsumed in
  /// its inbox; resume once the consumer drains below the low water.
  static constexpr std::size_t kHighWaterBytes = std::size_t{8} << 20;
  static constexpr std::size_t kLowWaterBytes = std::size_t{1} << 20;
  /// Frame-count backstop for floods of tiny messages.
  static constexpr std::size_t kMaxQueuedFrames = 4096;

  TcpEventLoop();
  ~TcpEventLoop();
  TcpEventLoop(const TcpEventLoop&) = delete;
  TcpEventLoop& operator=(const TcpEventLoop&) = delete;

  /// Registers a non-blocking fd and its reader.  The loop takes
  /// ownership: the fd is closed by remove(), not by the caller.
  void add(int fd, std::shared_ptr<LoopReader> reader);

  /// Unregisters the fd and closes it (on the loop thread).
  void remove(int fd);

  /// Consumer-side request to resume a connection paused by
  /// backpressure.  Harmless if the fd is unpaused, done, or gone.
  void rearm(int fd);

  // -- loop thread only (called from a LoopReader) ---------------------
  /// Registers an fd the loop thread itself opened (an accept).
  void adopt(int fd, std::shared_ptr<LoopReader> reader);
  /// Stops watching an fd whose reader gave up on it; it is closed once
  /// the current event batch is serviced.
  void drop(int fd, LoopReader& reader);
  void arm(int fd, LoopReader& reader);
  void disarm(int fd, LoopReader& reader);

  /// Stops and joins the loop thread.  Called automatically at process
  /// exit for the global loop.
  void stop();

  /// The process-wide loop.  Intentionally leaked; an atexit handler
  /// joins its thread before static destructors tear down the metrics
  /// registry and frame pool it uses.
  [[nodiscard]] static TcpEventLoop& global();

 private:
  struct Op {
    enum class Kind : std::uint8_t { kAdd, kRemove, kRearm } kind;
    int fd = -1;
    std::shared_ptr<LoopReader> reader;
  };

  void run();
  void apply_ops();
  void enqueue(Op op);
  void wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};

  std::mutex mu_;  // guards ops_
  std::vector<Op> ops_;
  // Loop thread only (and the destructor, after the join).
  std::unordered_map<int, std::shared_ptr<LoopReader>> readers_;
  // fds arm() failed on, reported after the current batch.
  std::vector<std::pair<int, std::string>> unwatchable_;

  std::thread thread_;
};

}  // namespace vdce::dm
