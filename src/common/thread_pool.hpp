// The shared thread pools: the sanctioned fan-out primitives.
//
// The runtime modules used to spin up ad-hoc std::jthread batches for
// every parallel section (datamgr transfers, dsm service).  Scheduling
// adds hot-path parallelism (the Figure-4 AFG multicast and Predict
// scoring), which needs reusable workers instead of per-call thread
// churn.  ThreadPool provides:
//
//   * submit(fn)            -- run one job, get a std::future;
//   * parallel_for(...)     -- grain-size-chunked index loop where the
//                              CALLER also executes chunks, so nesting a
//                              parallel_for inside a pool job can never
//                              deadlock (queued helpers are optional:
//                              a helper that starts late finds no work
//                              left and returns immediately).
//
// parallel_for makes no ordering promise: the body must write results
// by index (or otherwise commute) so that the outcome is identical to
// the serial loop -- parallelism changes wall-clock, never results.
//
// ParkedThreadPool serves the stage runner's gangs (DESIGN.md D9): jobs
// that must all be live at once, so it never queues, and a round's jobs
// are handed over in one batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/queue.hpp"

namespace vdce::common {

/// Fixed-size worker pool over a closable MessageQueue.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);

  /// Closes the queue and joins the workers; queued jobs still run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of pool workers (excludes callers participating in
  /// parallel_for).
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// The process-wide pool, sized to the hardware.  Modules share it
  /// instead of sizing private pools against each other.
  static ThreadPool& shared();

  /// parallel_for on the shared pool, which is built only for a loop
  /// that can use a helper: with 0 helpers, or a range no bigger than
  /// one grain, the loop runs inline and starts no thread.
  static void shared_parallel_for(std::size_t begin, std::size_t end,
                                  std::size_t grain,
                                  std::function<void(std::size_t)> body,
                                  std::size_t max_helpers);

  /// Runs `fn` on a pool worker; the future carries its result or
  /// exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Calls `body(i)` for every i in [begin, end), in chunks of `grain`
  /// indices.  At most `max_helpers` pool workers assist the calling
  /// thread; with 0 helpers (or a range no bigger than one grain) the
  /// loop runs serially inline.  Returns when every index has been
  /// processed; the first exception thrown by any chunk is rethrown
  /// (remaining chunks still run).  Safe to call from inside a pool job.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    std::function<void(std::size_t)> body,
                    std::size_t max_helpers);

 private:
  void enqueue(std::function<void()> job);

  MessageQueue<std::function<void()>> jobs_;
  std::vector<std::jthread> workers_;
};

/// Threads that outlive their jobs, for gangs whose jobs block on each
/// other: the stage threads and restore feeders of one round (D9).  A
/// launch never queues -- it hands each job to a parked thread, or
/// starts a new one when none is parked -- because a stage waits for
/// its parents' frames and for room on its children's links, so a
/// queued stage would deadlock the gang.  A launch hands its whole
/// batch over under one hold of the pool's mutex and wakes the threads
/// only after releasing it, so no job of the batch can finish and have
/// its thread handed a later job of the same batch: every job runs on a
/// thread of its own.  A thread
/// parks itself before its gang counts the job finished, so once a
/// gang's join returns every thread it used is parked again.  There is
/// no size, cap or idle timeout: the pool holds the peak number of jobs
/// that were live at once.  An exception escaping a job terminates the
/// process, as it would on a std::jthread.
class ParkedThreadPool {
 public:
  /// Jobs launched together and joined together; the destructor joins.
  class Gang {
   public:
    explicit Gang(ParkedThreadPool& pool = ParkedThreadPool::global())
        : pool_(pool) {}
    ~Gang() { join(); }

    Gang(const Gang&) = delete;
    Gang& operator=(const Gang&) = delete;

    /// Starts every job of `jobs` at once, each on a thread of its own,
    /// woken in order; the jobs are moved from.
    void launch(std::span<std::function<void()>> jobs) {
      pool_.launch(*this, jobs);
    }
    /// The one-job batch.
    void launch(std::function<void()> job) { launch(std::span(&job, 1)); }

    /// Returns when every launched job has finished, its captures are
    /// destroyed and its thread is parked.
    void join();

   private:
    friend class ParkedThreadPool;
    void finished();

    ParkedThreadPool& pool_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t running_ = 0;
  };

  ParkedThreadPool();

  /// Wakes and joins every thread.  No gang may still be running.
  ~ParkedThreadPool();

  ParkedThreadPool(const ParkedThreadPool&) = delete;
  ParkedThreadPool& operator=(const ParkedThreadPool&) = delete;

  /// The process-wide pool.  Leaked on purpose: its parked threads are
  /// never joined, so they cannot hold up process exit.
  static ParkedThreadPool& global();

  /// Threads started so far.
  [[nodiscard]] std::size_t threads() const;
  /// Threads parked now, waiting for a job.
  [[nodiscard]] std::size_t parked() const;

 private:
  struct Worker;

  void launch(Gang& gang, std::span<std::function<void()>> jobs);
  void serve(Worker& worker);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> idle_;
  bool stopping_ = false;
};

}  // namespace vdce::common
