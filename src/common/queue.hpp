// Closable thread-safe FIFO used for message passing between runtime
// components (CP.mess: prefer message queues over shared mutable state).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace vdce::common {

/// Unbounded multi-producer multi-consumer queue.
///
/// `close()` wakes all blocked consumers; after close, `pop()` drains the
/// remaining items and then returns nullopt.  Pushing to a closed queue
/// is a no-op returning false, which lets producers discover shutdown
/// without racing the consumer.
template <typename T>
class MessageQueue {
 public:
  /// Enqueues an item; returns false (dropping it) if the queue is closed.
  bool push(T item) {
    {
      std::lock_guard lk(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  std::optional<T> pop() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard lk(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Waits at most `timeout` for an item.
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lk(mu_);
    if (!cv_.wait_for(lk, timeout,
                      [&] { return !items_.empty() || closed_; })) {
      return std::nullopt;
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void close() {
    {
      std::lock_guard lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lk(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lk(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace vdce::common
