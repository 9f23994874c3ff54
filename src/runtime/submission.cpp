#include "runtime/submission.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace vdce::rt {

namespace {

[[nodiscard]] bool is_terminal(SubmissionState state) {
  return state == SubmissionState::kCompleted ||
         state == SubmissionState::kRejected ||
         state == SubmissionState::kFailed;
}

common::Counter& counter(const char* name) {
  return common::MetricsRegistry::global().counter(name);
}

}  // namespace

const char* to_string(SubmissionState state) {
  switch (state) {
    case SubmissionState::kQueued:
      return "queued";
    case SubmissionState::kRunning:
      return "running";
    case SubmissionState::kCompleted:
      return "completed";
    case SubmissionState::kRejected:
      return "rejected";
    case SubmissionState::kFailed:
      return "failed";
  }
  return "unknown";
}

/// Everything the service tracks about one submission.  Owned by a
/// shared_ptr so waiters and workers may hold it across unlocks; the
/// graph/allocation members keep stable addresses for the run's
/// FaultTolerance closures.  While it runs, `allocation` and
/// `admission` change only under mu_ (a re-placement), and `error`
/// holds the QoS refusal of the latest failed re-placement, if any.
/// Its waiters sleep on `terminal`, which note_terminal_locked
/// notifies, so a finished app wakes only them.
struct AppSubmissionService::AppRecord {
  SubmissionRequest request;
  common::AppId app;
  SubmissionState state = SubmissionState::kQueued;
  sched::QosAdmission admission;
  sched::AllocationTable allocation;
  double queue_eta_s = 0.0;
  std::size_t grant_index = 0;
  std::uint64_t seq = 0;      // global submission order (FIFO tie-break)
  bool counted_queued = false;
  bool charged = false;
  sched::HostOccupancy charge;  // exactly what charge_locked added
  double pred_charged = 0.0;    // ETA charge added to pending_pred_s_
  RunResult result;
  std::string error;
  std::condition_variable terminal;
};

AppSubmissionService::AppSubmissionService(
    SiteId local_site, sched::SiteDirectory& directory,
    const tasklib::TaskRegistry& registry, AppSubmissionConfig config)
    : local_site_(local_site),
      directory_(&directory),
      registry_(&registry),
      config_(config),
      paused_(config.start_paused) {
  config_.slots = std::max<std::size_t>(config_.slots, 1);
  workers_.reserve(config_.slots);
  for (std::size_t i = 0; i < config_.slots; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AppSubmissionService::~AppSubmissionService() {
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  workers_.clear();  // joins; workers drain the ready queue first
}

void AppSubmissionService::add_forecaster(
    predict::LoadForecaster* forecaster) {
  std::lock_guard lk(mu_);
  forecasters_.push_back(forecaster);
}

bool AppSubmissionService::report_host_failure(common::HostId host) {
  if (liveness_ == nullptr || !liveness_->report_host_failure(host)) {
    return false;
  }
  // Outside the directory lock: a fresh quarantine version-bumps every
  // forecaster via forget(host), so the prediction cache's epoch moves
  // and Predict scores computed while the flapping host looked healthy
  // are unservable.
  std::lock_guard lk(mu_);
  for (predict::LoadForecaster* f : forecasters_) f->forget(host);
  if (common::trace_enabled()) {
    common::trace_instant("host_quarantined", "submission",
                          {{"host", std::to_string(host.value())}});
  }
  return true;
}

common::AppId AppSubmissionService::submit(SubmissionRequest request) {
  std::vector<SubmissionRequest> one;
  one.push_back(std::move(request));
  return submit_batch(std::move(one)).front();
}

std::vector<common::AppId> AppSubmissionService::submit_batch(
    std::vector<SubmissionRequest> requests) {
  static common::Counter& m_submitted = counter("submission.submitted");
  static common::Counter& m_rejected = counter("submission.rejected");
  static common::Counter& m_backpressure =
      counter("submission.backpressure");
  static common::Counter& m_preempted = counter("submission.preempted");
  static common::Counter& m_admitted = counter("submission.admitted");
  static common::Counter& m_queued = counter("submission.queued");
  // Phase A (no lock): an invalid graph throws before any submission is
  // recorded -- exactly the single-submit contract, batch-wide.
  for (const SubmissionRequest& request : requests) {
    request.graph.validate();
  }

  std::vector<std::shared_ptr<AppRecord>> burst;
  burst.reserve(requests.size());
  std::vector<common::AppId> tickets;
  tickets.reserve(requests.size());

  // Phase B (brief lock): tickets and records.  Everything
  // per-submission that must be ordered (seq, ids) happens here; the
  // heavy placement work does not.
  {
    std::lock_guard lk(mu_);
    if (shutdown_) {
      throw common::StateError("submission service is shut down");
    }
    for (SubmissionRequest& request : requests) {
      auto rec = std::make_shared<AppRecord>();
      rec->request = std::move(request);
      rec->app = common::AppId{next_ticket_++};
      rec->seq = next_seq_++;
      ++stats_.submitted;
      m_submitted.add(1);
      records_.emplace(rec->app, rec);
      tickets.push_back(rec->app);
      burst.push_back(std::move(rec));
    }
  }

  // Phase C (no lock): Figure 4 -- a per-submission Site Scheduler
  // places each AFG against the directory's current view.  Placement is
  // the expensive step, so it runs outside the service lock and
  // concurrent submitters overlap their scheduling work.  A failed
  // placement leaves its reason in the record's error.
  for (const auto& rec : burst) {
    try {
      sched::SiteScheduler scheduler(local_site_, *directory_,
                                     config_.scheduler);
      rec->allocation = scheduler.schedule(rec->request.graph);
    } catch (const std::exception& e) {
      rec->error = std::string("scheduling failed: ") + e.what();
    }
  }

  // Phase D (one lock hold): the whole burst's admission bookkeeping --
  // QoS, capacity/preemption, charges and queue pushes -- runs under a
  // single acquisition, member by member, exactly as sequential
  // submits would.
  std::size_t queued = 0;
  {
    std::lock_guard lk(mu_);
    for (const auto& rec : burst) {
      common::ScopedSpan span("submit", "submission");
      if (span.active()) {
        span.rename("submit:" + rec->request.graph.name());
        span.arg("app", rec->app.value());
        span.arg("user", rec->request.user);
      }

      if (shutdown_) {
        // The service shut down between phases; the workers that would
        // run this submission may already be gone.
        rec->state = SubmissionState::kRejected;
        rec->error = "submission service is shut down";
        ++stats_.rejected;
        m_rejected.add(1);
        if (span.active()) span.arg("outcome", "rejected");
        note_terminal_locked(rec);
        continue;
      }
      if (!rec->error.empty()) {
        rec->state = SubmissionState::kRejected;
        // rec->error already carries "scheduling failed: ...".
        ++stats_.rejected;
        m_rejected.add(1);
        if (span.active()) span.arg("outcome", "rejected");
        note_terminal_locked(rec);
        continue;
      }

      // Residual-capacity QoS admission against the live occupancy:
      // every already-admitted, not-yet-finished application is
      // charged, earlier members of this burst included.
      rec->admission =
          sched::check_qos(rec->request.graph, rec->allocation, *directory_,
                           rec->request.qos, occupancy_);
      if (!rec->admission.admitted) {
        rec->state = SubmissionState::kRejected;
        rec->error = "QoS deadline unmet: slack " +
                     std::to_string(rec->admission.slack_s) + "s";
        ++stats_.rejected;
        m_rejected.add(1);
        if (span.active()) span.arg("outcome", "rejected");
        note_terminal_locked(rec);
        continue;
      }
      if (queue_.size() >= config_.max_queue) {
        // Shedding tier 2: a full queue admits a newcomer only over the
        // body of the youngest queued submission of a strictly lower
        // priority tier; running applications are never touched.
        const std::optional<FairShareEntry> victim =
            queue_.preempt_below(rec->request.priority);
        if (!victim) {
          rec->state = SubmissionState::kRejected;
          rec->error = "ready queue full (backpressure)";
          ++stats_.rejected;
          m_rejected.add(1);
          m_backpressure.add(1);
          if (span.active()) span.arg("outcome", "backpressure");
          note_terminal_locked(rec);
          continue;
        }
        evict_queued_locked(records_.at(victim->app),
                            "preempted by higher-priority submission",
                            &SubmissionStats::preempted, m_preempted);
      }

      const bool immediate =
          !paused_ && queue_.size() == 0 && running_ < config_.slots;
      if (!immediate) {
        // Queue-with-ETA: predicted drain time of everything ahead
        // (every charged submission, queued or running), spread over
        // the slots.  pending_pred_s_ is maintained incrementally by
        // charge/release, so the estimate no longer walks all records.
        rec->queue_eta_s =
            pending_pred_s_ / static_cast<double>(config_.slots);
      }
      charge_locked(*rec);
      if (immediate) {
        ++stats_.admitted;
        m_admitted.add(1);
        if (span.active()) span.arg("outcome", "admitted");
      } else {
        rec->counted_queued = true;
        ++stats_.queued;
        m_queued.add(1);
        if (span.active()) {
          span.arg("outcome", "queued");
          span.arg("eta_s", rec->queue_eta_s);
        }
      }
      FairShareEntry entry;
      entry.app = rec->app;
      entry.seq = rec->seq;
      entry.priority = rec->request.priority;
      entry.weight = rec->request.weight;
      // Straight-into-a-free-slot admissions already count as running
      // work, not backlog: preempting or shedding them would desync the
      // admitted counters, so they are not eligible.
      entry.preemptible = rec->counted_queued;
      queue_.push(rec->request.user, entry);
      ++queued;
      common::log_info("submission", "app ", rec->app.value(), " '",
                       rec->request.graph.name(), "' user ",
                       rec->request.user, ": ",
                       immediate ? "admitted" : "queued", ", slack ",
                       rec->admission.slack_s, "s");
    }
  }
  // One wake-up per queued entry; a busy worker finds any left over
  // when it finishes.
  for (std::size_t i = 0; i < queued; ++i) work_cv_.notify_one();
  return tickets;
}

void AppSubmissionService::charge_locked(AppRecord& record) {
  record.charge = record.allocation.host_occupancy();
  for (const auto& [host, busy] : record.charge) {
    occupancy_[host] += busy;
  }
  record.pred_charged = record.admission.predicted_makespan_s;
  pending_pred_s_ += record.pred_charged;
  record.charged = true;
}

void AppSubmissionService::release_locked(AppRecord& record) {
  if (!record.charged) return;
  for (const auto& [host, busy] : record.charge) {
    auto it = occupancy_.find(host);
    if (it == occupancy_.end()) continue;
    it->second -= busy;
    if (it->second <= 1e-9) occupancy_.erase(it);
  }
  pending_pred_s_ = std::max(0.0, pending_pred_s_ - record.pred_charged);
  record.pred_charged = 0.0;
  record.charged = false;
}

void AppSubmissionService::evict_queued_locked(
    const std::shared_ptr<AppRecord>& record, std::string reason,
    std::uint64_t SubmissionStats::*count, common::Counter& metric) {
  record->state = SubmissionState::kRejected;
  record->error = std::move(reason);
  release_locked(*record);
  ++(stats_.*count);
  metric.add(1);
  note_terminal_locked(record);
}

void AppSubmissionService::note_terminal_locked(
    const std::shared_ptr<AppRecord>& record) {
  static common::Counter& m_retired = counter("submission.retired");
  record->terminal.notify_all();
  terminal_fifo_.push_back(record->app);
  if (config_.terminal_record_cap == 0) return;
  while (terminal_fifo_.size() > config_.terminal_record_cap) {
    const common::AppId oldest = terminal_fifo_.front();
    terminal_fifo_.pop_front();
    const auto it = records_.find(oldest);
    if (it == records_.end()) continue;
    RetiredStub stub;
    stub.state = it->second->state;
    stub.grant_index =
        static_cast<std::uint32_t>(it->second->grant_index);
    records_.erase(it);
    retired_.emplace(oldest, stub);
    retired_fifo_.push_back(oldest);
    ++stats_.retired;
    m_retired.add(1);
    if (config_.retired_stub_cap > 0) {
      while (retired_fifo_.size() > config_.retired_stub_cap) {
        retired_.erase(retired_fifo_.front());
        retired_fifo_.pop_front();
      }
    }
  }
}

std::size_t AppSubmissionService::shed_queued(int below_priority) {
  static common::Counter& m_shed = counter("submission.shed");
  std::size_t dropped = 0;
  {
    std::lock_guard lk(mu_);
    const std::vector<FairShareEntry> victims =
        queue_.shed_below(below_priority);
    for (const FairShareEntry& victim : victims) {
      evict_queued_locked(records_.at(victim.app),
                          "shed: priority below cutoff",
                          &SubmissionStats::shed, m_shed);
    }
    dropped = victims.size();
    if (dropped > 0) {
      common::log_info("submission", "shed ", dropped,
                       " queued submissions below priority ",
                       below_priority);
    }
  }
  if (dropped > 0) cv_.notify_all();
  return dropped;
}

bool AppSubmissionService::usable(
    common::HostId host, std::optional<common::SiteId> site,
    const std::function<bool(common::HostId)>& probe) const {
  if (liveness_ != nullptr &&
      (liveness_->quarantined(host) ||
       (site && liveness_->state(*site) == SiteLiveness::kDead))) {
    return false;
  }
  return !probe || probe(host);
}

FaultTolerance AppSubmissionService::wrap_hooks(AppRecord& rec,
                                                FaultTolerance hooks) {
  const std::function<bool(common::HostId)> probe = hooks.host_alive;
  FaultTolerance::Rescheduler inner = std::move(hooks.reschedule);
  if (!inner) {
    inner = [this, &rec](const afg::TaskNode& node,
                         const std::vector<common::HostId>& excluded) {
      return sched::SiteScheduler(local_site_, *directory_, config_.scheduler)
          .reschedule(rec.request.graph, rec.allocation, node.id, excluded);
    };
  }
  // reschedule: the inner rescheduler knows only the exclusion list, not
  // liveness -- a whole-site outage leaves sibling hosts it would happily
  // pick -- so widen the exclusion until a usable host or none remains.
  // It runs outside mu_ (in daemon mode it makes RPCs), one call per app
  // at a time (stage threads re-place concurrently); the move and the
  // re-admission then happen under mu_.
  hooks.reschedule =
      [this, &rec, probe, inner = std::move(inner),
       serial = std::make_shared<std::mutex>()](
          const afg::TaskNode& node,
          const std::vector<common::HostId>& excluded)
      -> std::optional<sched::AllocationEntry> {
    std::lock_guard one_at_a_time(*serial);
    std::vector<common::HostId> widened = excluded;
    auto candidate = inner(node, widened);
    while (candidate && !usable(candidate->primary_host(), candidate->site,
                                probe)) {
      widened.push_back(candidate->primary_host());
      candidate = inner(node, widened);
    }
    if (!candidate) return std::nullopt;

    // Residual-capacity re-admission of the moved plan: release this
    // app's charges first, so it never competes with its own old plan.
    std::lock_guard lk(mu_);
    const sched::AllocationEntry previous = rec.allocation.entry(node.id);
    release_locked(rec);
    rec.allocation.replace(*candidate);
    const sched::QosAdmission admission =
        sched::check_qos(rec.request.graph, rec.allocation, *directory_,
                         rec.request.qos, occupancy_);
    if (admission.admitted) {
      rec.admission = admission;
      rec.error.clear();
    } else {
      rec.allocation.replace(previous);
      rec.error = "QoS re-admission refused on re-placing task " +
                  node.label + ": slack " +
                  std::to_string(admission.slack_s) + "s";
      common::log_info("submission", "app ", rec.app.value(), ": ",
                       rec.error);
      candidate.reset();
    }
    charge_locked(rec);
    return candidate;
  };
  if (liveness_ == nullptr) return hooks;
  // on_failure: every reported host failure feeds the flap policy (task
  // errors on a live host do not -- a flaky task must not quarantine a
  // healthy machine).
  hooks.on_failure = [this, inner = std::move(hooks.on_failure)](
                         const RescheduleRequest& request) {
    if (inner) inner(request);
    if (request.kind == RescheduleRequest::Kind::kHostFailure) {
      (void)report_host_failure(request.host);
    }
  };
  // host_alive is the usability predicate, so the per-frame guard and
  // recovery act on the directory's verdicts too: a quarantined host or
  // one on a dead site reads dead even while it answers probes.  The
  // site comes from the app's allocation, which re-placements keep
  // current.
  hooks.host_alive = [this, &rec, probe](common::HostId host) {
    std::optional<common::SiteId> site;
    {
      std::lock_guard lk(mu_);
      const auto rows = rec.allocation.portion_for_host(host);
      if (!rows.empty()) site = rows.front().site;
    }
    return usable(host, site, probe);
  };
  return hooks;
}

void AppSubmissionService::worker_loop() {
  static common::Counter& m_queued_then_admitted =
      counter("submission.queued_then_admitted");
  static common::Counter& m_completed = counter("submission.completed");
  static common::Counter& m_failed = counter("submission.failed");
  static common::Gauge& m_running =
      common::MetricsRegistry::global().gauge("submission.running");
  for (;;) {
    std::shared_ptr<AppRecord> rec;
    {
      std::unique_lock lk(mu_);
      work_cv_.wait(lk, [&] {
        return shutdown_ || (!paused_ && queue_.size() > 0);
      });
      // Stride grant: the queue picks the lowest (user pass, seq) in
      // O(log users); grant bookkeeping stays under mu_ so the grant
      // index is a total order.
      const std::optional<FairShareEntry> entry = queue_.pop();
      if (!entry) {
        if (shutdown_) return;
        continue;
      }
      rec = records_.at(entry->app);
      rec->state = SubmissionState::kRunning;
      rec->grant_index = next_grant_++;
      ++running_;
      if (rec->counted_queued) {
        ++stats_.queued_then_admitted;
        m_queued_then_admitted.add(1);
      }
      m_running.set(static_cast<double>(running_));
    }

    EngineConfig engine_config = config_.engine;
    engine_config.seed = rec->request.seed;
    ExecutionEngine engine(*registry_, engine_config);
    FaultTolerance hooks;
    if (fault_hooks_) {
      hooks = wrap_hooks(*rec, fault_hooks_(rec->request.graph,
                                            rec->allocation));
    }

    RunResult result;
    std::string error;
    {
      common::ScopedSpan run_span("app_run", "submission");
      if (run_span.active()) {
        run_span.rename("run:" + rec->request.graph.name());
        run_span.arg("app", rec->app.value());
        run_span.arg("user", rec->request.user);
        run_span.arg("grant", rec->grant_index);
      }
      try {
        result = engine.execute(rec->request.graph, rec->allocation,
                                nullptr, nullptr,
                                fault_hooks_ ? &hooks : nullptr, rec->app);
      } catch (const std::exception& e) {
        error = e.what();
      }
      if (run_span.active()) {
        run_span.arg("outcome", error.empty() ? "completed" : "failed");
      }
    }

    {
      std::lock_guard lk(mu_);
      release_locked(*rec);
      --running_;
      if (error.empty()) {
        rec->result = std::move(result);
        rec->error.clear();  // a refused re-placement the run outlived
        rec->state = SubmissionState::kCompleted;
        ++stats_.completed;
        m_completed.add(1);
      } else {
        // A refused re-admission is the cause behind the engine's "no
        // feasible host": lead with it.
        rec->error = rec->error.empty() ? std::move(error)
                                        : rec->error + "; " + error;
        rec->state = SubmissionState::kFailed;
        ++stats_.failed;
        m_failed.add(1);
        common::log_info("submission", "app ", rec->app.value(),
                         " failed: ", rec->error);
      }
      m_running.set(static_cast<double>(running_));
      note_terminal_locked(rec);
      if (running_ == 0 && queue_.size() == 0) cv_.notify_all();
    }
  }
}

SubmissionStatus AppSubmissionService::snapshot_locked(
    const AppRecord& rec) const {
  SubmissionStatus status;
  status.app = rec.app;
  status.state = rec.state;
  status.user = rec.request.user;
  status.admission = rec.admission;
  status.queue_eta_s = rec.queue_eta_s;
  status.allocation = rec.allocation;
  status.grant_index = rec.grant_index;
  status.result = rec.result;
  status.error = rec.error;
  return status;
}

SubmissionStatus AppSubmissionService::retired_snapshot_locked(
    common::AppId app) const {
  const auto it = retired_.find(app);
  if (it == retired_.end()) {
    throw common::NotFoundError("unknown submission ticket");
  }
  SubmissionStatus status;
  status.app = app;
  status.state = it->second.state;
  status.grant_index = it->second.grant_index;
  status.retired = true;
  return status;
}

SubmissionStatus AppSubmissionService::wait(common::AppId app) const {
  std::unique_lock lk(mu_);
  const auto it = records_.find(app);
  // Retired submissions are terminal by construction: the stub is the
  // final answer.
  if (it == records_.end()) return retired_snapshot_locked(app);
  const auto rec = it->second;
  rec->terminal.wait(lk, [&] { return is_terminal(rec->state); });
  return snapshot_locked(*rec);
}

SubmissionStatus AppSubmissionService::status(common::AppId app) const {
  std::lock_guard lk(mu_);
  const auto it = records_.find(app);
  if (it == records_.end()) return retired_snapshot_locked(app);
  return snapshot_locked(*it->second);
}

void AppSubmissionService::resume() {
  {
    std::lock_guard lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void AppSubmissionService::pause() {
  std::lock_guard lk(mu_);
  paused_ = true;
}

void AppSubmissionService::drain() const {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return queue_.size() == 0 && running_ == 0; });
}

SubmissionStats AppSubmissionService::stats() const {
  std::lock_guard lk(mu_);
  SubmissionStats out = stats_;
  out.running = running_;
  out.queue_depth = queue_.size();
  out.records_retained = records_.size();
  return out;
}

}  // namespace vdce::rt
