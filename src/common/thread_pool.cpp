#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace vdce::common {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] {
      while (auto job = jobs_.pop()) (*job)();
    });
  }
}

ThreadPool::~ThreadPool() { jobs_.close(); }

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::shared_parallel_for(std::size_t begin, std::size_t end,
                                     std::size_t grain,
                                     std::function<void(std::size_t)> body,
                                     std::size_t max_helpers) {
  if (max_helpers == 0 || end <= begin + std::max<std::size_t>(grain, 1)) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  shared().parallel_for(begin, end, grain, std::move(body), max_helpers);
}

void ThreadPool::enqueue(std::function<void()> job) {
  jobs_.push(std::move(job));
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain,
                              std::function<void(std::size_t)> body,
                              std::size_t max_helpers) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  const std::size_t chunks = (n + grain - 1) / grain;
  const std::size_t helpers =
      std::min({max_helpers, workers_.size(), chunks - 1});
  if (helpers == 0) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // Chunk-claiming shared state.  Helpers are optional accelerators: a
  // helper that only starts after every chunk is claimed simply returns,
  // so the caller never waits on a job that has not been scheduled (the
  // property that makes nested parallel_for deadlock-free).  The state
  // (body included) is owned by shared_ptr because such a late helper
  // can outlive this call.
  struct State {
    std::function<void(std::size_t)> body;
    std::atomic<std::size_t> next;
    std::size_t end;
    std::size_t grain;
    std::atomic<std::size_t> done_chunks{0};
    std::size_t total_chunks;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->body = std::move(body);
  state->next = begin;
  state->end = end;
  state->grain = grain;
  state->total_chunks = chunks;

  const auto run_chunks = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const std::size_t start = s->next.fetch_add(s->grain);
      if (start >= s->end) return;
      const std::size_t stop = std::min(s->end, start + s->grain);
      try {
        for (std::size_t i = start; i < stop; ++i) s->body(i);
      } catch (...) {
        std::lock_guard lk(s->mu);
        if (!s->error) s->error = std::current_exception();
      }
      if (s->done_chunks.fetch_add(1) + 1 == s->total_chunks) {
        std::lock_guard lk(s->mu);
        s->cv.notify_all();
      }
    }
  };

  for (std::size_t i = 0; i < helpers; ++i) {
    enqueue([state, run_chunks] { run_chunks(state); });
  }
  run_chunks(state);

  std::unique_lock lk(state->mu);
  state->cv.wait(lk, [&] {
    return state->done_chunks.load() == state->total_chunks;
  });
  if (state->error) std::rethrow_exception(state->error);
}

struct ParkedThreadPool::Worker {
  std::condition_variable wake;
  // Handed over under the pool's mutex; empty while parked.
  std::function<void()> job;
  Gang* gang = nullptr;
  std::thread thread;
};

ParkedThreadPool::ParkedThreadPool() = default;

ParkedThreadPool::~ParkedThreadPool() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  for (const auto& w : workers_) w->wake.notify_one();
  for (const auto& w : workers_) w->thread.join();
}

ParkedThreadPool& ParkedThreadPool::global() {
  static ParkedThreadPool* pool = new ParkedThreadPool;  // leaked on purpose
  return *pool;
}

std::size_t ParkedThreadPool::threads() const {
  std::lock_guard lk(mu_);
  return workers_.size();
}

std::size_t ParkedThreadPool::parked() const {
  std::lock_guard lk(mu_);
  return idle_.size();
}

void ParkedThreadPool::launch(Gang& gang,
                              std::span<std::function<void()>> jobs) {
  std::vector<Worker*> handed;
  handed.reserve(jobs.size());
  {
    std::lock_guard lk(mu_);
    // Too few parked: start more threads rather than queue.  Room is
    // made first, so no push_back can throw once a thread runs.
    const std::size_t missing =
        jobs.size() - std::min(jobs.size(), idle_.size());
    workers_.reserve(workers_.size() + missing);
    idle_.reserve(workers_.size() + missing);
    for (std::size_t i = 0; i < missing; ++i) {
      auto fresh = std::make_unique<Worker>();
      fresh->thread = std::thread([this, w = fresh.get()] { serve(*w); });
      workers_.push_back(std::move(fresh));
      idle_.push_back(workers_.back().get());
    }
    // A woken thread needs this mutex to take its job, so none of the
    // batch can run, finish and park before every job is handed over.
    for (std::function<void()>& job : jobs) {
      Worker* w = idle_.back();
      idle_.pop_back();
      w->job = std::move(job);
      w->gang = &gang;
      handed.push_back(w);
    }
    std::lock_guard gang_lk(gang.mu_);
    gang.running_ += jobs.size();
  }
  for (Worker* w : handed) w->wake.notify_one();
}

void ParkedThreadPool::serve(Worker& w) {
  std::unique_lock lk(mu_);
  for (;;) {
    w.wake.wait(lk, [&] { return w.job != nullptr || stopping_; });
    if (w.job == nullptr) return;
    std::function<void()> job = std::exchange(w.job, nullptr);
    Gang* gang = std::exchange(w.gang, nullptr);
    lk.unlock();
    [&]() noexcept { job(); }();
    job = nullptr;  // the job's captures die before its gang hears of it
    lk.lock();
    idle_.push_back(&w);  // parked before done
    lk.unlock();
    gang->finished();
    lk.lock();
  }
}

void ParkedThreadPool::Gang::join() {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return running_ == 0; });
}

void ParkedThreadPool::Gang::finished() {
  // Notified under the lock: join() cannot return, and the gang cannot
  // be destroyed, until this call no longer touches it.
  std::lock_guard lk(mu_);
  if (--running_ == 0) cv_.notify_all();
}

}  // namespace vdce::common
