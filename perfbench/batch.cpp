// The two batch workloads: closed-loop clients submitting the paper's
// three applications to one AppSubmissionService.
//
//   batch_inproc      in-process RepositoryDirectory and channels; a
//                     fixed quarter of the submissions has one host
//                     refuse its first task attempt (in-gang retry +
//                     SiteScheduler::reschedule).
//   batch_daemon_tcp  every site's control plane in a vdce_site_daemon
//                     under the Watchdog (default gossip liveness),
//                     placement over RemoteSiteDirectory RPCs, task
//                     data over loopback TCP; no faults.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "daemon/client.hpp"
#include "netsim/config.hpp"
#include "netsim/testbed.hpp"
#include "predict/forecaster.hpp"
#include "repository/repository.hpp"
#include "runtime/submission.hpp"
#include "runtime/watchdog.hpp"
#include "scheduler/directory.hpp"
#include "scheduler/site_scheduler.hpp"
#include "seams.hpp"
#include "sim/workloads.hpp"

namespace vdce::perfbench {
namespace {

using common::AppId;
using common::HostId;
using common::SiteId;
using common::TaskId;

constexpr SiteId kLocalSite{0};
/// Engine slots of the service; fewer than the clients, so a queue
/// always forms.
constexpr std::size_t kSlots = 2;
constexpr std::size_t kMaxClients = 4;
/// Set-ups per run (setup_s is their median).
constexpr int kSetups = 5;
/// Untimed warm-up submissions per set-up.
constexpr std::size_t kWarmupOps = 150;
/// Timed submissions per second of --seconds: the op count is fixed by
/// the arguments, never by how fast the program runs.
constexpr double kInprocOpsPerSecond = 700.0;
constexpr double kDaemonOpsPerSecond = 500.0;
/// Terminal records the service keeps in full (AppSubmissionConfig::
/// terminal_record_cap); older ones retire into stubs, so memory stays
/// flat over the window.  With the default of 65536 the heap grows by
/// ~45 KB per completed op, and on a balloon-backed VM the first touch
/// of that fresh memory made run-to-run throughput vary ~3x more.
constexpr std::size_t kRetainedRecords = 1024;
/// The window's metrics come from this many segments (see
/// segment_window).
constexpr int kSegments = 20;
/// Completed submissions replayed through a plain engine afterwards.
constexpr std::size_t kReplaySample = 12;
constexpr double kResidualTolerance = 1e-8;
/// Op ids of warm-up submissions carry the set-up index in their high
/// bits; timed ops are 0..N-1.
constexpr std::uint64_t kWarmupBase = std::uint64_t{1} << 40;
/// Upper bound on tasks per application (per-op per-task tables).
constexpr std::size_t kMaxTasks = 16;

/// The paper's three applications, rotated by op index.
enum class AppKind : std::uint8_t { kLinearSolver, kC3i, kFourier };

afg::FlowGraph prototype(AppKind kind) {
  switch (kind) {
    case AppKind::kLinearSolver: return sim::make_linear_solver_graph(1.0);
    case AppKind::kC3i:          return sim::make_c3i_graph(1.0);
    case AppKind::kFourier:      return sim::make_fourier_graph(1.0);
  }
  return {};
}

/// What the seed decides about one op.
struct OpPlan {
  AppKind kind = AppKind::kLinearSolver;
  std::uint64_t seed = 1;
  bool faulted = false;
  /// Index (into graph.tasks()) of the task whose primary host refuses.
  std::size_t victim = 0;
};

OpPlan plan_op(std::uint64_t run_seed, std::uint64_t op, bool faults) {
  OpPlan plan;
  plan.kind = static_cast<AppKind>(op % 3);
  plan.seed = mix(run_seed ^ mix(op));
  // A fixed quarter, chosen by index and seed (never by clock or by
  // completion order).
  plan.faulted = faults && (op % 4) == (run_seed % 4);
  plan.victim = static_cast<std::size_t>(mix(plan.seed));
  return plan;
}

/// Graphs are submitted as "<name>#<op>", so every seam can tell which
/// op a call belongs to.
std::uint64_t op_of(const afg::FlowGraph& graph) {
  const auto hash = graph.name().rfind('#');
  return std::stoull(graph.name().substr(hash + 1));
}

/// Timing decorator over the SiteDirectory handed to the service (the
/// traced run's placement seam).
class TimedDirectory final : public sched::SiteDirectory {
 public:
  TimedDirectory(sched::SiteDirectory& inner, SpanRecorder& spans,
                 std::size_t timed_ops)
      : inner_(&inner),
        spans_(&spans),
        selection_s_(timed_ops, 0.0),
        selections_(timed_ops, 0) {}

  [[nodiscard]] std::vector<SiteId> sites() const override {
    return inner_->sites();
  }
  [[nodiscard]] common::Duration site_distance(SiteId a,
                                               SiteId b) const override {
    return inner_->site_distance(a, b);
  }
  [[nodiscard]] common::Duration transfer_time(SiteId a, SiteId b,
                                               double mb) const override {
    return inner_->transfer_time(a, b, mb);
  }
  [[nodiscard]] sched::HostSelectionMap host_selection(
      SiteId site, const afg::FlowGraph& graph,
      std::size_t threads) override {
    const double t0 = now_s();
    auto result = inner_->host_selection(site, graph, threads);
    const double t1 = now_s();
    const std::uint64_t op = op_of(graph);
    if (op < selection_s_.size()) {
      // Placement runs in the submitting client's thread, one op per
      // thread at a time, so the per-op slots need no lock.
      selection_s_[op] += t1 - t0;
      ++selections_[op];
      spans_->add_child(SpanRecorder::submit_span(op), op, "host_selection",
                        t0, t1);
      std::lock_guard lk(mu_);
      call_s_.push_back(t1 - t0);
    }
    return result;
  }
  [[nodiscard]] sched::HostSelection host_reselection(
      SiteId site, const afg::TaskNode& node,
      const std::vector<HostId>& excluded) override {
    return inner_->host_reselection(site, node, excluded);
  }
  [[nodiscard]] common::Duration base_time(
      const std::string& library_task) const override {
    return inner_->base_time(library_task);
  }
  [[nodiscard]] common::Duration host_transfer_time(HostId from, HostId to,
                                                    double mb) const override {
    return inner_->host_transfer_time(from, to, mb);
  }

  [[nodiscard]] double selection_s(std::size_t op) const {
    return selection_s_[op];
  }
  [[nodiscard]] std::uint64_t selections(std::size_t op) const {
    return selections_[op];
  }
  [[nodiscard]] std::vector<double> call_s() const {
    std::lock_guard lk(mu_);
    return call_s_;
  }

 private:
  sched::SiteDirectory* inner_;
  SpanRecorder* spans_;
  std::vector<double> selection_s_;
  std::vector<std::uint64_t> selections_;
  mutable std::mutex mu_;
  std::vector<double> call_s_;
};

/// Per-op measurements of the timed window (index = op id).
struct OpLog {
  explicit OpLog(std::size_t n)
      : submit_call(n), submit_ret(n), wait_ret(n), makespan(n),
        solver_residual(n, std::nan("")), completed(n, 0) {}
  std::vector<double> submit_call, submit_ret, wait_ret, makespan,
      solver_residual;
  std::vector<std::uint8_t> completed;
};

/// A completed submission kept for the replay check.
struct ReplayCase {
  std::uint64_t op = 0;
  afg::FlowGraph graph;
  std::uint64_t seed = 0;
  AppId app;
  sched::AllocationTable allocation;
  std::map<TaskId, tasklib::Payload> exits;
};

/// What the traced run's seams record.
struct Tracing {
  explicit Tracing(std::size_t timed_ops)
      : task_compute_s(timed_ops * kMaxTasks, 0.0),
        first_compute_ns(timed_ops) {
    for (auto& v : first_compute_ns) v.store(UINT64_MAX);
  }
  SpanRecorder spans;
  ComputeTally tally;
  std::mutex mu;
  std::vector<double> reschedule_s;  // guarded by mu
  /// Pure task-function seconds per (op, task index).
  std::vector<double> task_compute_s;
  /// Start of each op's first task function (ns of now_s()).
  std::vector<std::atomic<std::uint64_t>> first_compute_ns;
  /// Low 32 bits of each timed op's seed -> op (task functions are
  /// attributed by the seed of the Rng the engine hands them).
  std::unordered_map<std::uint32_t, std::uint64_t> op_by_seed;
};

/// Everything one set-up builds; members are torn down in reverse
/// order, so the service drains before the daemons are stopped.
struct Env {
  std::unique_ptr<netsim::VirtualTestbed> testbed;
  std::vector<std::unique_ptr<repo::SiteRepository>> repositories;
  std::vector<std::unique_ptr<predict::LoadForecaster>> forecasters;
  sched::RepositoryDirectory repo_directory;
  std::unique_ptr<rt::Watchdog> watchdog;
  std::unique_ptr<daemon::RemoteSiteDirectory> remote;
  std::unique_ptr<TimedDirectory> timed;
  sched::SiteDirectory* directory = nullptr;
  std::vector<SiteId> sites;
  std::unique_ptr<rt::AppSubmissionService> service;
};

struct Workload {
  const Options* options = nullptr;
  bool daemon_mode = false;
  std::uint64_t testbed_seed = 0;
  std::size_t clients = 1;
  std::size_t timed_ops = 0;
  std::array<afg::FlowGraph, 3> prototypes;
  std::vector<std::uint8_t> sampled;

  [[nodiscard]] OpPlan plan(std::uint64_t op) const {
    return plan_op(options->seed, op, !daemon_mode);
  }
  [[nodiscard]] const afg::FlowGraph& graph(AppKind kind) const {
    return prototypes[static_cast<std::size_t>(kind)];
  }
};

std::unique_ptr<Env> set_up(const Workload& w,
                            const tasklib::TaskRegistry& registry,
                            Tracing* tracing) {
  auto env = std::make_unique<Env>();
  env->testbed = std::make_unique<netsim::VirtualTestbed>(
      netsim::make_campus_testbed(w.testbed_seed));
  env->sites = env->testbed->sites();
  for (const SiteId site : env->sites) {
    auto repository = std::make_unique<repo::SiteRepository>(site);
    registry.install_defaults(repository->tasks());
    env->testbed->populate_repository(*repository, site);
    auto forecaster = std::make_unique<predict::LoadForecaster>();
    env->repo_directory.add_site(site, repository.get(), forecaster.get());
    env->repositories.push_back(std::move(repository));
    env->forecasters.push_back(std::move(forecaster));
  }
  env->directory = &env->repo_directory;
  if (w.daemon_mode) {
    rt::WatchdogConfig config;
    config.daemon_path = VDCE_SITE_DAEMON_PATH;
    config.seed = w.testbed_seed;
    env->watchdog = std::make_unique<rt::Watchdog>(config);
    for (const SiteId site : env->sites) env->watchdog->spawn(site);
    for (const SiteId site : env->sites) {
      (void)env->watchdog->rpc_port(site, 30.0);
    }
    env->remote = std::make_unique<daemon::RemoteSiteDirectory>(
        env->repo_directory, *env->watchdog, env->sites);
    env->directory = env->remote.get();
  }
  if (tracing != nullptr) {
    env->timed = std::make_unique<TimedDirectory>(*env->directory,
                                                  tracing->spans, w.timed_ops);
    env->directory = env->timed.get();
  }

  rt::AppSubmissionConfig config;
  config.slots = kSlots;
  config.max_queue = 64;
  config.terminal_record_cap = kRetainedRecords;
  config.engine.transport = w.daemon_mode ? dm::TransportKind::kTcp
                                          : dm::TransportKind::kInProcess;
  env->service = std::make_unique<rt::AppSubmissionService>(
      kLocalSite, *env->directory, registry, config);

  // The benchmark's FaultTolerance seam, installed in both workloads:
  // recovery re-places through the Figure-4 scheduler, backoff sleeps
  // are no-ops (recovery measures its work, not a nap), and the guard
  // refuses the planned attempt -- the first one that lands on the
  // victim host.
  sched::SiteDirectory* directory = env->directory;
  env->service->set_fault_hooks(
      [&w, directory, tracing](const afg::FlowGraph& graph,
                               const sched::AllocationTable& allocation) {
        const std::uint64_t op = op_of(graph);
        const OpPlan plan = w.plan(op);
        rt::FaultTolerance ft;
        ft.sleep = [](double) {};
        ft.reschedule = [&graph, &allocation, directory, tracing, op,
                         timed_ops = w.timed_ops](
                            const afg::TaskNode& node,
                            const std::vector<HostId>& excluded) {
          const double t0 = now_s();
          sched::SiteScheduler scheduler(kLocalSite, *directory);
          auto entry =
              scheduler.reschedule(graph, allocation, node.id, excluded);
          const double t1 = now_s();
          if (tracing != nullptr && op < timed_ops) {
            tracing->spans.add_child(SpanRecorder::wait_span(op), op,
                                     "reschedule", t0, t1);
            std::lock_guard lk(tracing->mu);
            tracing->reschedule_s.push_back(t1 - t0);
          }
          return entry;
        };
        if (plan.faulted) {
          const auto& tasks = graph.tasks();
          const HostId victim =
              allocation.entry(tasks[plan.victim % tasks.size()].id)
                  .primary_host();
          ft.host_alive = [victim,
                           tripped = std::make_shared<std::atomic<bool>>(
                               false)](HostId host) {
            return !(host == victim && !tripped->exchange(true));
          };
        }
        return ft;
      });
  return env;
}

/// Closed-loop clients: each submits, waits, and only then takes the
/// next op index.  `log` is null for warm-up phases.
std::uint64_t run_phase(const Workload& w, Env& env, std::uint64_t op_base,
                        std::size_t count, OpLog* log,
                        std::vector<ReplayCase>* replays) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex replay_mu;
  const auto client = [&](std::size_t c) {
    for (;;) {
      const std::size_t j = next.fetch_add(1);
      if (j >= count) return;
      const std::uint64_t op = op_base + j;
      const OpPlan plan = w.plan(op);
      const afg::FlowGraph& graph = w.graph(plan.kind);
      rt::SubmissionRequest request;
      request.graph = graph;
      request.graph.set_name(graph.name() + "#" + std::to_string(op));
      request.qos.deadline_s = 1e9;
      request.user = "client" + std::to_string(c);
      request.seed = plan.seed;
      const double t0 = now_s();
      const AppId app = env.service->submit(std::move(request));
      const double t1 = now_s();
      rt::SubmissionStatus status = env.service->wait(app);
      const double t2 = now_s();
      const bool ok = status.state == rt::SubmissionState::kCompleted;
      if (!ok) failed.fetch_add(1);
      if (log == nullptr) continue;
      log->submit_call[j] = t0;
      log->submit_ret[j] = t1;
      log->wait_ret[j] = t2;
      log->completed[j] = ok ? 1 : 0;
      if (!ok) continue;
      log->makespan[j] = status.result.makespan_s;
      if (plan.kind == AppKind::kLinearSolver) {
        const TaskId res = *graph.find_by_label("residual");
        log->solver_residual[j] = status.result.outputs.at(res).as_scalar();
      }
      if (w.sampled[j] != 0) {
        ReplayCase rc;
        rc.op = op;
        rc.graph = graph;
        rc.seed = plan.seed;
        rc.app = app;
        rc.allocation = status.allocation;
        for (const TaskId t : graph.exit_tasks()) {
          rc.exits.emplace(t, status.result.outputs.at(t));
        }
        std::lock_guard lk(replay_mu);
        replays->push_back(std::move(rc));
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  return failed.load();
}

std::size_t client_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::clamp<std::size_t>(cpus, 1, kMaxClients);
}

/// Daemon pids of an env (empty in-process).
std::vector<std::int64_t> daemon_pids(const Env& env) {
  std::vector<std::int64_t> pids;
  if (!env.watchdog) return pids;
  for (const SiteId site : env.sites) {
    pids.push_back(env.watchdog->status(site).pid);
  }
  return pids;
}

double daemons_cpu_s(const std::vector<std::int64_t>& pids) {
  double total = 0.0;
  for (const auto pid : pids) total += pid_cpu_s(pid);
  return total;
}

std::uint64_t heartbeats(const Env& env) {
  std::uint64_t total = 0;
  if (!env.watchdog) return 0;
  for (const SiteId site : env.sites) {
    total += env.watchdog->status(site).heartbeats;
  }
  return total;
}

/// Cache counters summed over every site's prediction cache.
predict::PredictionCacheStats cache_stats(const Env& env) {
  predict::PredictionCacheStats sum;
  for (const SiteId site : env.sites) {
    const auto s = env.repo_directory.prediction_cache(site).stats();
    sum.lookups += s.lookups;
    sum.hits += s.hits;
  }
  return sum;
}

/// The counters a window reconciles, read before and after it.
struct Counters {
  std::uint64_t retries = 0, reschedules = 0, attempts = 0, tasks = 0,
                frames = 0, bytes = 0, pool_hits = 0, pool_misses = 0,
                rpc_retries = 0, suspects = 0, restarts = 0;
  static Counters take() {
    Counters c;
    c.retries = counter("engine.retries");
    c.reschedules = counter("engine.reschedules");
    c.attempts = counter("engine.attempts");
    c.tasks = counter("engine.tasks_completed");
    c.frames = counter("datamgr.frames_sent");
    c.bytes = counter("datamgr.bytes_sent");
    c.pool_hits = counter("datamgr.pool.reuse_hits");
    c.pool_misses = counter("datamgr.pool.reuse_misses");
    c.rpc_retries = counter("daemon.rpc_retries");
    c.suspects = counter("liveness.suspects");
    c.restarts = counter("watchdog.restarts");
    return c;
  }
};

/// Results of one timed window.
struct Window {
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  double cpu_s = 0.0;
  double daemon_cpu_s = 0.0;
  Counters before, after;
  std::uint64_t heartbeats = 0;
  predict::PredictionCacheStats cache_before, cache_after;
  std::size_t transport_failures = 0;
  HostNoise noise_before, noise_after;
  std::unique_ptr<WindowSampler> sampler;

  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(completed) / (end_s - start_s);
  }
  [[nodiscard]] double delta(std::uint64_t Counters::*field) const {
    return static_cast<double>(after.*field - before.*field);
  }
};

Window timed_window(const Workload& w, Env& env, OpLog& log,
                    std::vector<ReplayCase>& replays) {
  Window win;
  const auto pids = daemon_pids(env);
  const std::size_t tf_before =
      env.remote ? env.remote->stats().transport_failures : 0;
  const std::uint64_t hb_before = heartbeats(env);
  win.cache_before = cache_stats(env);
  win.before = Counters::take();
  win.noise_before = HostNoise::take();
  const double daemon_cpu0 = daemons_cpu_s(pids);
  const double cpu0 = self_cpu_s();
  win.sampler = std::make_unique<WindowSampler>(pids);
  win.start_s = now_s();
  win.failed = run_phase(w, env, 0, w.timed_ops, &log, &replays);
  win.end_s = *std::max_element(log.wait_ret.begin(), log.wait_ret.end());
  win.sampler->stop();
  win.cpu_s = self_cpu_s() - cpu0;
  win.daemon_cpu_s = daemons_cpu_s(pids) - daemon_cpu0;
  win.noise_after = HostNoise::take();
  win.after = Counters::take();
  win.cache_after = cache_stats(env);
  win.heartbeats = heartbeats(env) - hb_before;
  if (env.remote) {
    win.transport_failures =
        env.remote->stats().transport_failures - tf_before;
  }
  win.completed = w.timed_ops - win.failed;
  return win;
}

/// Untimed output checks after the window.
void check_outputs(const Workload& w, const OpLog& log,
                   const std::vector<ReplayCase>& replays,
                   const Window& win, Report& report) {
  report.check(win.failed == 0,
               std::to_string(win.failed) + " submissions did not complete");
  std::uint64_t planned_faults = 0;
  for (std::uint64_t op = 0; op < w.timed_ops; ++op) {
    if (w.plan(op).faulted) ++planned_faults;
  }
  const auto retries =
      static_cast<std::uint64_t>(win.delta(&Counters::retries));
  const auto reschedules =
      static_cast<std::uint64_t>(win.delta(&Counters::reschedules));
  report.check(retries == planned_faults,
               "engine.retries " + std::to_string(retries) + " != planned " +
                   std::to_string(planned_faults));
  report.check(reschedules == planned_faults,
               "engine.reschedules " + std::to_string(reschedules) +
                   " != planned " + std::to_string(planned_faults));

  std::size_t solvers = 0;
  for (std::size_t j = 0; j < w.timed_ops; ++j) {
    if (std::isnan(log.solver_residual[j])) continue;
    ++solvers;
    report.check(log.solver_residual[j] < kResidualTolerance,
                 "op " + std::to_string(j) + " residual " +
                     fmt(log.solver_residual[j]) + " over tolerance");
  }
  report.check(solvers == w.timed_ops / 3,
               "only " + std::to_string(solvers) +
                   " linear solvers completed");

  // Replay: a plain engine with the same graph, seed, allocation and
  // AppId must reproduce every exit output bit for bit.
  std::size_t faulted_replays = 0;
  for (const ReplayCase& rc : replays) {
    rt::EngineConfig config;
    config.seed = rc.seed;
    rt::ExecutionEngine engine(tasklib::builtin_registry(), config);
    const rt::RunResult again = engine.execute(rc.graph, rc.allocation,
                                               nullptr, nullptr, nullptr,
                                               rc.app);
    for (const auto& [task, payload] : rc.exits) {
      const tasklib::Payload& other = again.outputs.at(task);
      report.check(payload.type() == other.type() &&
                       payload.bytes() == other.bytes(),
                   "op " + std::to_string(rc.op) + " task " +
                       std::to_string(task.value()) +
                       " differs from its replay");
    }
    if (w.plan(rc.op).faulted) ++faulted_replays;
  }
  report.check(replays.size() == kReplaySample,
               "replayed " + std::to_string(replays.size()) + " of " +
                   std::to_string(kReplaySample) + " sampled submissions");
  report.notes.push_back(
      "checks: " + std::to_string(replays.size()) + " replays (" +
      std::to_string(faulted_replays) + " faulted) bit-identical, " +
      std::to_string(solvers) + " solver residuals < " +
      fmt(kResidualTolerance) + ", retries = reschedules = planned faults " +
      std::to_string(planned_faults));
}

void end_to_end_metrics(const Workload& w, const Env& env, const OpLog& log,
                        const Window& win, double setup_s, Report& report) {
  std::vector<std::pair<double, double>> ops(w.timed_ops);
  std::vector<double> latency_ms(w.timed_ops);
  for (std::size_t j = 0; j < w.timed_ops; ++j) {
    latency_ms[j] = log.completed[j] != 0
                        ? (log.wait_ret[j] - log.submit_call[j]) * 1e3
                        : std::numeric_limits<double>::infinity();
    ops[j] = {log.wait_ret[j], latency_ms[j]};
  }
  double rss = peak_rss_mb();
  for (const auto pid : daemon_pids(env)) rss += peak_rss_mb(pid);
  const SegmentedWindow seg =
      segment_window(std::move(ops), win.start_s, *win.sampler, kSegments);
  report.set("setup_s", setup_s, "s");
  report.set("ops_per_s", seg.ops_per_s, "1/s");
  report.set("latency_p50_ms", seg.p50_ms, "ms");
  report.set("latency_p90_ms", seg.p90_ms, "ms");
  report.set("cpu_ms_per_op", seg.cpu_ms_per_op, "ms");
  report.set("peak_rss_mb", rss, "MB");
  const double per_op =
      std::max<double>(1.0, static_cast<double>(win.completed));
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << "whole window: ops_per_s "
     << win.ops_per_s() << " latency_p50_ms " << quantile(latency_ms, 0.50)
     << " latency_p90_ms " << quantile(latency_ms, 0.90) << " cpu_ms_per_op "
     << (win.cpu_s + win.daemon_cpu_s) * 1e3 / per_op
     << "; steal jiffies/s in kept segments " << seg.kept_steal_per_s
     << ", in the others " << seg.dropped_steal_per_s;
  report.notes.push_back(os.str());
}

void diagnostics(const Env& env, const Window& win, Report& report) {
  std::string line = "diagnostics: " +
                     noise_line(win.noise_before, win.noise_after);
  if (env.watchdog) {
    std::size_t restarts = 0;
    std::string incarnations;
    for (const SiteId site : env.sites) {
      const auto status = env.watchdog->status(site);
      restarts += status.restarts;
      incarnations += (incarnations.empty() ? "" : ",") +
                      std::to_string(status.incarnation);
    }
    line += " daemon_restarts=" + std::to_string(restarts) +
            " daemon_incarnations=" + incarnations;
  }
  report.notes.push_back(line);
}

/// Longest path through `graph`, each task weighted by its measured
/// task-function seconds (`compute[t]` for the task with id t).
double critical_path_s(const afg::FlowGraph& graph, const double* compute) {
  std::map<TaskId, double> finish;
  double longest = 0.0;
  for (const TaskId t : graph.topological_order()) {
    double start = 0.0;
    for (const TaskId p : graph.parents(t)) start = std::max(start, finish[p]);
    finish[t] = start + compute[t.value()];
    longest = std::max(longest, finish[t]);
  }
  return longest;
}

/// The traced run: per-layer metrics, spans, and the per-op
/// decomposition, from a fresh set-up whose seams record.
void traced_run(const Workload& w, double untraced_ops_per_s,
                Report& report) {
  Tracing tracing(w.timed_ops);
  for (std::uint64_t op = 0; op < w.timed_ops; ++op) {
    tracing.op_by_seed.emplace(static_cast<std::uint32_t>(w.plan(op).seed),
                               op);
  }
  // A task function's Rng seed is plan.seed ^ (app << 32) ^ task: its
  // low 32 bits name the op, given the task index.
  const tasklib::TaskRegistry registry = timed_registry(
      tracing.tally, [&w, &tracing](std::uint64_t seed, std::size_t slot,
                                    double t0, double t1) {
        for (std::uint32_t t = 0; t < kMaxTasks; ++t) {
          const auto it =
              tracing.op_by_seed.find(static_cast<std::uint32_t>(seed ^ t));
          if (it == tracing.op_by_seed.end()) continue;
          const std::uint64_t op = it->second;
          const afg::FlowGraph& graph = w.graph(w.plan(op).kind);
          if (t >= graph.task_count() ||
              graph.task(TaskId(t)).library_task !=
                  tracing.tally.name(slot)) {
            continue;
          }
          tracing.task_compute_s[op * kMaxTasks + t] = t1 - t0;
          tracing.spans.add_child(SpanRecorder::wait_span(op), op,
                                  tracing.tally.name(slot), t0, t1);
          auto& first = tracing.first_compute_ns[op];
          const auto ns = static_cast<std::uint64_t>(t0 * 1e9);
          std::uint64_t cur = first.load(std::memory_order_relaxed);
          while (ns < cur && !first.compare_exchange_weak(cur, ns)) {
          }
          return;
        }
      });
  auto env = set_up(w, registry, &tracing);
  (void)run_phase(w, *env, kWarmupBase * (kSetups + 1), kWarmupOps, nullptr,
                  nullptr);
  tracing.spans.clear();
  tracing.tally.reset();
  {
    std::lock_guard lk(tracing.mu);
    tracing.reschedule_s.clear();
  }
  OpLog log(w.timed_ops);
  std::vector<ReplayCase> replays;
  const Window win = timed_window(w, *env, log, replays);
  report.failed = std::max(report.failed, win.failed);

  // Per-op spans and decomposition:
  //   latency = submit + queue_and_start + makespan + residual
  //   makespan = critical_path_compute + noncompute
  // Here queue_and_start runs from submit() returning to the op's first
  // task function, so the residual is time no span covers: from the
  // engine's last completion to wait() returning, less the gap between
  // the start signal and the first task function.
  const double n = static_cast<double>(w.timed_ops);
  std::vector<double> latency_ms, submit_ms, queue_ms, queue_remainder_ms,
      makespan_ms, cp_ms, noncompute_ms, placement_self_ms, residual_ms;
  double selection_total_s = 0.0;
  std::uint64_t selection_calls = 0;
  std::ostringstream rows;
  rows << std::fixed << std::setprecision(3);
  std::size_t rows_shown = 0;
  for (std::size_t j = 0; j < w.timed_ops; ++j) {
    tracing.spans.add(SpanRecorder::op_span(j), 0, j, "op",
                      log.submit_call[j], log.wait_ret[j]);
    tracing.spans.add(SpanRecorder::submit_span(j), SpanRecorder::op_span(j),
                      j, "submit", log.submit_call[j], log.submit_ret[j]);
    tracing.spans.add(SpanRecorder::wait_span(j), SpanRecorder::op_span(j), j,
                      "wait", log.submit_ret[j], log.wait_ret[j]);
    selection_total_s += env->timed->selection_s(j);
    selection_calls += env->timed->selections(j);
    if (log.completed[j] == 0) continue;
    const afg::FlowGraph& graph = w.graph(w.plan(j).kind);
    const double latency = log.wait_ret[j] - log.submit_call[j];
    const double submit = log.submit_ret[j] - log.submit_call[j];
    const double first_compute =
        static_cast<double>(tracing.first_compute_ns[j].load()) * 1e-9;
    const double queue = first_compute - log.submit_ret[j];
    const double cp =
        critical_path_s(graph, &tracing.task_compute_s[j * kMaxTasks]);
    const double residual = latency - submit - queue - log.makespan[j];
    latency_ms.push_back(latency * 1e3);
    submit_ms.push_back(submit * 1e3);
    queue_ms.push_back(queue * 1e3);
    queue_remainder_ms.push_back(
        (log.wait_ret[j] - log.submit_ret[j] - log.makespan[j]) * 1e3);
    makespan_ms.push_back(log.makespan[j] * 1e3);
    cp_ms.push_back(cp * 1e3);
    noncompute_ms.push_back((log.makespan[j] - cp) * 1e3);
    placement_self_ms.push_back((submit - env->timed->selection_s(j)) * 1e3);
    residual_ms.push_back(residual * 1e3);
    if (rows_shown < 3) {
      ++rows_shown;
      rows << "\nop " << j << " (" << graph.name() << "): latency "
           << latency * 1e3 << " = submit " << submit * 1e3
           << " + queue_and_start " << queue * 1e3 << " + makespan "
           << log.makespan[j] * 1e3 << " [= critical_path_compute "
           << cp * 1e3 << " + noncompute " << (log.makespan[j] - cp) * 1e3
           << "] + residual " << residual * 1e3;
    }
  }

  const double lookups = static_cast<double>(win.cache_after.lookups -
                                             win.cache_before.lookups);
  const double hits =
      static_cast<double>(win.cache_after.hits - win.cache_before.hits);
  const double pool =
      win.delta(&Counters::pool_hits) + win.delta(&Counters::pool_misses);
  const double window_s = win.end_s - win.start_s;

  report.set("runtime.submission.submit_ms", median(submit_ms), "ms");
  report.set("runtime.submission.queue_and_start_ms",
             median(queue_remainder_ms), "ms");
  report.set("scheduler.host_selection_ms_per_op",
             selection_total_s * 1e3 / n, "ms");
  report.set("scheduler.host_selections_per_op",
             static_cast<double>(selection_calls) / n, "count");
  report.set("scheduler.placement_self_ms", median(placement_self_ms), "ms");
  report.set("scheduler.reschedule_ms", median(tracing.reschedule_s) * 1e3,
             "ms");
  if (w.daemon_mode) {
    // The daemons' prediction caches are not visible from outside.
    report.set("daemon.rpc_ms", median(env->timed->call_s()) * 1e3, "ms");
    report.set("daemon.cpu_ms_per_op", win.daemon_cpu_s * 1e3 / n, "ms");
    report.set("daemon.rpc_failures",
               win.delta(&Counters::rpc_retries) +
                   static_cast<double>(win.transport_failures),
               "count");
    report.set("runtime.liveness.heartbeats_per_s",
               static_cast<double>(win.heartbeats) / window_s, "1/s");
    report.set("runtime.liveness.suspects",
               win.delta(&Counters::suspects) + win.delta(&Counters::restarts),
               "count");
  } else {
    report.set("predict.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
               "ratio");
  }
  report.set("runtime.engine.makespan_ms", median(makespan_ms), "ms");
  report.set("runtime.engine.noncompute_ms", median(noncompute_ms), "ms");
  report.set("runtime.engine.attempts_per_task",
             win.delta(&Counters::attempts) /
                 std::max(1.0, win.delta(&Counters::tasks)),
             "ratio");
  report.set("tasklib.compute_ms_per_op", tracing.tally.total_s() * 1e3 / n,
             "ms");
  report.set("tasklib.critical_path_compute_ms", median(cp_ms), "ms");
  report.set("datamgr.frames_per_op", win.delta(&Counters::frames) / n,
             "count");
  report.set("datamgr.bytes_per_op", win.delta(&Counters::bytes) / n, "B");
  report.set("datamgr.pool.miss_ratio",
             pool > 0 ? win.delta(&Counters::pool_misses) / pool : 0.0,
             "ratio");

  std::ostringstream os;
  os << std::fixed << std::setprecision(3)
     << "decomposition, p50 ms over " << latency_ms.size()
     << " ops (medians of the parts need not add up): latency "
     << median(latency_ms) << " = submit " << median(submit_ms)
     << " + queue_and_start " << median(queue_ms) << " + makespan "
     << median(makespan_ms) << " [= critical_path_compute " << median(cp_ms)
     << " + noncompute " << median(noncompute_ms) << "] + residual "
     << median(residual_ms) << rows.str();
  report.notes.push_back(os.str());
  std::ostringstream overhead;
  overhead << std::fixed << std::setprecision(1)
           << "tracing overhead: ops_per_s untraced " << untraced_ops_per_s
           << ", traced " << win.ops_per_s() << " ("
           << 100.0 * (1.0 - win.ops_per_s() / untraced_ops_per_s)
           << "% lower), " << tracing.spans.size() << " spans";
  report.notes.push_back(overhead.str());
  diagnostics(*env, win, report);
  env.reset();
  if (!w.options->spans_path.empty() &&
      !tracing.spans.write_csv(w.options->spans_path, win.start_s)) {
    report.notes.push_back("could not write " + w.options->spans_path);
  }
  check_outputs(w, log, replays, win, report);
}

}  // namespace

Report run_batch(const Options& options, bool daemon_mode) {
  Workload w;
  w.options = &options;
  w.daemon_mode = daemon_mode;
  w.testbed_seed = 1000 + options.seed;
  w.clients = client_count();
  // A multiple of 12 ops: every app kind and the faulted quarter get
  // exactly their share whatever the seed.
  const double dozens =
      (daemon_mode ? kDaemonOpsPerSecond : kInprocOpsPerSecond) *
      options.seconds / 12.0;
  w.timed_ops = 12 * std::max<std::size_t>(
                         static_cast<std::size_t>(std::llround(dozens)),
                         kReplaySample);
  for (std::size_t k = 0; k < 3; ++k) {
    w.prototypes[k] = prototype(static_cast<AppKind>(k));
  }
  // Replay sample: half faulted, half clean where faults exist.
  w.sampled.assign(w.timed_ops, 0);
  {
    common::Rng rng(options.seed ^ 0x5EED);
    const std::size_t want_faulted = daemon_mode ? 0 : kReplaySample / 2;
    std::size_t faulted = 0, clean = 0;
    while (faulted + clean < kReplaySample) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(w.timed_ops));
      if (w.sampled[j] != 0) continue;
      if (w.plan(j).faulted ? faulted < want_faulted
                            : clean < kReplaySample - want_faulted) {
        ++(w.plan(j).faulted ? faulted : clean);
        w.sampled[j] = 1;
      }
    }
  }

  Report report;
  report.attempted = w.timed_ops;
  const tasklib::TaskRegistry& builtin = tasklib::builtin_registry();

  // Set-up, several times; the last one serves the timed window.
  std::unique_ptr<Env> env;
  std::vector<double> setups;
  std::uint64_t warmup_failed = 0;
  for (int r = 0; r < (options.trace ? 1 : kSetups); ++r) {
    env.reset();
    const double t0 = now_s();
    env = set_up(w, builtin, nullptr);
    warmup_failed += run_phase(w, *env, kWarmupBase * (r + 1), kWarmupOps,
                               nullptr, nullptr);
    setups.push_back(now_s() - t0);
  }
  report.check(warmup_failed == 0, "warm-up submissions failed");
  {
    std::ostringstream os;
    os << "set-ups (s):";
    for (const double s : setups) os << ' ' << s;
    report.notes.push_back(os.str());
  }

  OpLog log(w.timed_ops);
  std::vector<ReplayCase> replays;
  const Window win = timed_window(w, *env, log, replays);
  report.failed = win.failed;
  if (options.trace) {
    const double untraced_ops_per_s = win.ops_per_s();
    env.reset();
    traced_run(w, untraced_ops_per_s, report);
    return report;
  }
  end_to_end_metrics(w, *env, log, win, median(setups), report);
  diagnostics(*env, win, report);
  env.reset();
  check_outputs(w, log, replays, win, report);
  return report;
}

}  // namespace vdce::perfbench
