// The one stage runner behind ExecutionEngine and StreamingEngine
// (DESIGN.md D9): rounds of stage threads, the per-frame step, and the
// single recovery model.  A batch run is a one-frame stream whose
// finished outputs are kept; a stream ledgers its sinks instead.
#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "datamgr/data_manager.hpp"
#include "datamgr/mplib.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/recovery.hpp"
#include "runtime/streaming.hpp"

namespace vdce::rt {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
/// Growth of the retry backoff per retry.
constexpr double kRetryBackoffMultiplier = 2.0;
/// Jitter fraction applied to every backoff nap, so simultaneous
/// retries (a whole gang refused by one dead host) do not stampede the
/// rescheduler in lockstep.
constexpr double kRetryBackoffJitter = 0.5;
/// Receive deadline of every stage in a recovery round (any round after
/// the first) when tighter than recv_timeout_s: a re-run whose inputs
/// never arrive fails within this window.
constexpr double kAttemptTimeoutS = 30.0;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Resolves an instrument.  Callers hold the reference in a function-
/// local static (registry references are stable), so no run takes the
/// registry's mutex.
common::Counter& metric(const char* name) {
  return common::MetricsRegistry::global().counter(name);
}

/// Frames each in-process link of a run holds: the stream's setting,
/// or the default every batch run uses.
std::size_t link_capacity(const StreamingConfig* stream) {
  return stream != nullptr ? stream->channel_capacity
                           : dm::kDefaultRingCapacity;
}

std::string hosts_csv(const std::vector<common::HostId>& hosts) {
  std::string out;
  for (const common::HostId h : hosts) {
    if (!out.empty()) out += ',';
    out += std::to_string(h.value());
  }
  return out;
}

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::byte> bytes) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Durable sink-state wire image (the per-window checkpoint payload):
///   u64 watermark (== frames_emitted)   u64 digest   u64 bytes
///   u32 retained-output count, then each output length-prefixed.
dm::FrameView encode_sink(const SinkStreamResult& r) {
  common::WireWriter w;
  w.write_u64(r.frames_emitted);
  w.write_u64(r.digest);
  w.write_u64(r.bytes_emitted);
  w.write_u32(static_cast<std::uint32_t>(r.outputs.size()));
  for (const auto& out : r.outputs) w.write_bytes(out);
  return dm::FramePool::global().copy_of(w.bytes());
}

void decode_sink(const dm::FrameView& fv, SinkStreamResult& r) {
  common::WireReader rd(fv.bytes());
  r.frames_emitted = rd.read_u64();
  r.digest = rd.read_u64();
  r.bytes_emitted = rd.read_u64();
  r.outputs.clear();
  const std::uint32_t kept = rd.read_count(4);
  for (std::uint32_t i = 0; i < kept; ++i) {
    r.outputs.push_back(rd.read_bytes());
  }
}

/// One execute() of either engine: the stages of one AFG, their
/// placements, and the rounds that run them.  `stream` null is a batch
/// run: frame 0 only, every finished output kept and fed to later
/// rounds.  Otherwise the stages run the stream's frames and its sinks
/// are ledgered, checkpointed per window, and resumed.
class StageRunner {
 public:
  struct Stage {
    const afg::TaskNode* node = nullptr;
    HostId host;
    bool source = false;
    int attempts = 1;              // charged attempts (recovery.hpp)
    std::size_t moves = 0;         // successful re-placements
    bool done = false;             // output final and kept (batch)
    // How this round's attempt ended (recovery.hpp), and why it failed.
    AttemptOutcome ended = AttemptOutcome::kCompleted;
    std::string error;
    std::vector<HostId> excluded;  // hosts this task must avoid
    double backoff_s = 0.0;        // the next retry nap
    double backoff_spent_s = 0.0;  // cumulative backoff slept so far
    // The last frame's output, its wire image (the slab the Data
    // Manager's sends shipped, kept for restore feeders and the sink
    // ledger without another copy, D13), its compute seconds, and the
    // Data Manager's I/O totals after it.
    tasklib::Payload output;
    dm::FrameView output_frame;
    Duration compute_s = 0.0;
    dm::ExecutionStats io;
    Duration turnaround_s = 0.0;   // first start signal to completion
    std::uint64_t frames = 0;      // frames computed, every round
    // A stream sink's ledger.  It outlives rounds: a sink whose host
    // survived keeps its watermark (frames_emitted) across a restart.
    std::optional<SinkStreamResult> sink;
    bool sink_lost = false;  // host died: roll back to the durable window
  };

  StageRunner(const tasklib::TaskRegistry& registry,
              const EngineConfig& config, const afg::FlowGraph& graph,
              const sched::AllocationTable& allocation,
              const FaultTolerance* ft, common::AppId app,
              dm::ConsoleService* console,
              const StreamingConfig* stream = nullptr,
              CheckpointStore* checkpoint = nullptr,
              const std::atomic<std::uint64_t>* stop = nullptr)
      : registry_(registry),
        config_(config),
        graph_(graph),
        ft_(ft),
        app_(app),
        console_(console),
        stream_(stream),
        checkpoint_(checkpoint),
        stop_(stop),
        stop_generation_(stop != nullptr ? stop->load() : 0),
        broker_(config.transport, link_capacity(stream)),
        recovery_on_(ft != nullptr && ft->reschedule != nullptr),
        windowed_(stream != nullptr && checkpoint != nullptr &&
                  stream->checkpoint_window > 0) {
    graph.validate();
    const std::vector<TaskId> topo = graph.topological_order();
    for (std::size_t i = 0; i < topo.size(); ++i) rank_.emplace(topo[i], i);
    stages.reserve(graph.task_count());
    for (const afg::TaskNode& node : graph.tasks()) {
      if (!allocation.contains(node.id)) {
        throw common::StateError("allocation table misses task " +
                                 node.label);
      }
      Stage& s = stages.emplace_back();
      s.node = &node;
      s.host = allocation.entry(node.id).primary_host();
      s.source = graph.parents(node.id).empty();
      s.backoff_s = config.retry_backoff_s;
      index_.emplace(node.id, stages.size() - 1);
    }
    if (stream == nullptr) return;
    for (const TaskId t : graph.exit_tasks()) {
      SinkStreamResult& sink = stages[index_.at(t)].sink.emplace();
      sink.task = t;
      sink.label = graph.task(t).label;
      sink.digest = kFnvOffset;
    }
  }

  /// Runs rounds until every stage finished.  Throws StateError naming
  /// the failing task once recovery is off, out of budget, or out of
  /// hosts; every stage thread is joined first.
  void run() {
    for (int round = 1;; ++round) {
      const std::uint64_t resume =
          stream_ != nullptr ? resume_frame(round) : 0;
      if (run_round(round, resume)) return;
      recover();
      ++restarts;
      if (stream_ != nullptr) {
        static common::Counter& m_restarts = metric("streaming.restarts");
        m_restarts.add(1);
      }
    }
  }

  std::vector<Stage> stages;  // graph.tasks() order
  int restarts = 0;
  std::uint64_t frames_resumed = 0;
  std::size_t max_ring_occupancy = 0;
  std::uint64_t producer_parks = 0;
  std::vector<double> sink_latencies_s;

 private:
  /// One round: this thread sets up every unfinished stage's Data
  /// Manager (Figure 7's set-up and acknowledgment), then hands the
  /// round's jobs to the parked pool in one hand-over, the execution
  /// startup signal; each stage runs its frames from `resume`.  True
  /// when no stage failed.
  bool run_round(int round, std::uint64_t resume) {
    broker_.clear_app(app_);  // the previous round's links are stale
    cause_ = nullptr;
    std::size_t live = 0;
    for (Stage& s : stages) {
      s.ended = AttemptOutcome::kCompleted;
      s.error.clear();
      if (!s.done) ++live;
    }
    common::log_info("engine", "app ", app_.value(), " '", graph_.name(),
                     "': round ", round, " delivers execution requests to ",
                     live, " tasks");
    double recv_s = 0.0;
    if (ft_ != nullptr) {
      recv_s = config_.recv_timeout_s;
      if (round > 1 && (recv_s <= 0.0 || kAttemptTimeoutS < recv_s)) {
        recv_s = kAttemptTimeoutS;
      }
    }
    // Every unfinished stage's Data Manager, sources first so they are
    // handed over first.  No open waits for its link's other end (D13),
    // so set-up needs no thread per stage; a failed set-up is the
    // round's cause, and no stage runs.
    std::vector<std::pair<Stage*, dm::DataManager>> managers;
    managers.reserve(live);
    for (const bool sources : {true, false}) {
      for (Stage& s : stages) {
        if (s.done || s.source != sources) continue;
        managers.emplace_back(&s, dm::DataManager(broker_, config_.library));
        dm::DataManager& dm = managers.back().second;
        if (recv_s > 0.0) dm.set_recv_timeout(recv_s);
        try {
          set_up(s, dm);
        } catch (const std::exception& e) {
          fail(s, e);
          for (auto& [_, opened] : managers) opened.teardown();
          return false;
        }
      }
    }
    // The restore feeders stand in for finished stages' machines and
    // push each kept output into its unfinished consumers' re-opened
    // channels, indistinguishable from the live send.  (Unfinished
    // producers do not wire finished consumers.)
    std::vector<std::function<void()>> jobs;
    jobs.reserve(live);
    for (const Stage& d : stages) {
      if (!d.done) continue;
      for (const TaskId child : graph_.children(d.node->id)) {
        if (stages[index_.at(child)].done) continue;
        try {
          dm::MessageEndpoint out(
              config_.library,
              broker_.open_send(dm::LinkKey{app_, d.node->id, child}));
          jobs.emplace_back([out, &frame = d.output_frame]() mutable {
            try {
              out.send_frame(dm::kPayloadTag, frame);
              out.close();
            } catch (const std::exception&) {
              // The consuming stage's own receive error is authoritative.
            }
          });
        } catch (const std::exception&) {
          // No feeder: the consumer's receive deadline reports it.
        }
      }
    }
    for (auto& [s, dm] : managers) {
      jobs.emplace_back(
          [this, s = s, &dm = dm, resume] { stage_main(*s, dm, resume); });
    }
    // "When all the required acknowledgments are received an execution
    // startup signal is sent to start the application execution": one
    // hand-over gives every stage and feeder a parked pool thread of its
    // own (the stand-in for its machine), all live at once.
    if (round == 1) gang_start_ = Clock::now();
    common::ParkedThreadPool::Gang gang;
    gang.launch(jobs);
    gang.join();
    return cause_ == nullptr;
  }

  /// Figure 7 set-up of one stage's Data Manager: its parents in port
  /// order and its unfinished children in topological rank (with every
  /// stage sending in that order and receiving in port order, blocked
  /// stages cannot wait in a cycle, DESIGN.md D9).  Returning is the
  /// acknowledgment.
  void set_up(const Stage& s, dm::DataManager& dm) {
    std::vector<TaskId> children;
    for (const TaskId c : graph_.children(s.node->id)) {
      if (!stages[index_.at(c)].done) children.push_back(c);
    }
    std::sort(children.begin(), children.end(),
              [&](TaskId a, TaskId b) { return rank_.at(a) < rank_.at(b); });
    const dm::TaskWiring wiring{app_, s.node->id,
                                graph_.ordered_parents(s.node->id),
                                std::move(children)};
    common::ScopedSpan setup_span("channel_setup", "engine");
    if (setup_span.active()) {
      setup_span.arg("app", app_.value());
      setup_span.arg("task", s.node->label);
      setup_span.arg("host", s.host.value());
      setup_span.arg("links", wiring.parents.size() + wiring.children.size());
    }
    dm.setup(wiring);
  }

  /// One stage thread, its task's Application Controller: it runs the
  /// frames over its Data Manager, already set up, and tears it down on
  /// every exit.
  void stage_main(Stage& s, dm::DataManager& dm, std::uint64_t resume) {
    try {
      run_frames(s, dm, resume);
    } catch (const std::exception& e) {
      fail(s, e);
    }
    // Closing retires this stage from every link: end of stream for its
    // consumers after a clean finish, unblocked peers after a failure.
    dm.teardown();
    const auto& rings = dm.input_rings();
    if (!rings.empty()) {
      std::lock_guard lk(mu_);
      for (const auto& ring : rings) {
        const dm::RingChannelStats rs = ring->stats();
        max_ring_occupancy = std::max(max_ring_occupancy, rs.high_water);
        producer_parks += rs.producer_parks;
      }
    }
  }

  /// Records how the stage's attempt failed; the round's first failure
  /// is its cause.  A TransportError is collateral: another stage
  /// caused it.
  void fail(Stage& s, const std::exception& e) {
    if (s.ended != AttemptOutcome::kRefused) {
      s.ended = dynamic_cast<const common::TransportError*>(&e) != nullptr
                    ? AttemptOutcome::kCollateral
                    : AttemptOutcome::kFailed;
    }
    {
      std::lock_guard lk(mu_);
      s.error = e.what();
      if (cause_ == nullptr) cause_ = &s;
    }
    // A stream's rings are aborted so every parked stage wakes; a batch
    // run's peers unblock through the failed stage's own channel close
    // (a producer parked on its full input ring fails).
    if (stream_ != nullptr) broker_.clear_app(app_);
  }

  /// The frame loop, once per attempt: a guard check, one receive per
  /// parent in port order, the compute, one send per child.  Sources
  /// stop at the frame count (1 for batch) or a stop request, every
  /// other stage at the frame count or end of stream.
  void run_frames(Stage& s, dm::DataManager& dm, std::uint64_t k) {
    const std::uint64_t first = k;
    const std::uint64_t frames = stream_ != nullptr ? stream_->frames : 1;
    for (;;) {
      std::optional<RescheduleRequest> refusal;
      {
        common::ScopedSpan span("attempt", "engine.task");
        if (span.active()) {
          span.rename("task:" + s.node->label);
          span.arg("app", app_.value());
          span.arg("host", s.host.value());
          span.arg("attempt", s.attempts);
          if (!s.excluded.empty()) span.arg("excluded", hosts_csv(s.excluded));
        }
        for (; frames == 0 || k < frames; ++k) {
          if (s.source && stop_ != nullptr &&
              stop_->load(std::memory_order_relaxed) != stop_generation_) {
            break;
          }
          if (s.source && stream_ != nullptr && stream_->track_latency) {
            std::lock_guard lk(latency_mu_);  // birth: before the sends
            born_[k] = Clock::now();
          }
          refusal = guard(s);
          if (refusal) break;
          tasklib::TaskContext ctx;
          ctx.input_size = s.node->props.input_size;
          common::Rng rng(
              stream_frame_seed(config_.seed, k) ^
              (static_cast<std::uint64_t>(app_.value()) << 32) ^
              s.node->id.value());
          ctx.rng = &rng;
          auto output = dm.run_frame(
              registry_, s.node->library_task, ctx, console_);
          if (!output) {  // the first input is at end of stream
            if (stream_ == nullptr) {
              throw common::TransportError(
                  "input channel closed before delivering data");
            }
            break;
          }
          ++s.frames;
          s.output = std::move(*output);
          s.output_frame = dm.output_frame();
          s.compute_s = dm.compute_s();
          s.io = dm.stats();
          if (s.sink) sink_frame(s, k);  // stream sinks only
        }
        if (span.active()) {
          span.arg("outcome", refusal ? "refused" : "completed");
        }
      }
      if (!refusal) break;
      // A refusal before the stage's first frame of this round is
      // re-placed right here, channels intact; a later one ends the
      // round (the stage has already passed frames on).
      if (k != first || !re_place(s, *refusal)) {
        s.ended = AttemptOutcome::kRefused;
        throw common::StateError("refused by its Application Controller: " +
                                 refusal->reason);
      }
    }
    if (stream_ == nullptr) s.done = true;
    s.turnaround_s = seconds_since(gang_start_);
  }

  /// Stream sink bookkeeping after frame `k`: exactly-once counting,
  /// latency samples, and windowed checkpoints.
  void sink_frame(Stage& s, std::uint64_t k) {
    static common::Counter& m_emitted = metric("streaming.frames_emitted");
    static common::Counter& m_skipped = metric("streaming.frames_skipped");
    static common::Counter& m_windows = metric("streaming.windows_captured");
    SinkStreamResult& r = *s.sink;
    if (k < r.frames_emitted) {
      // A frame below the watermark re-flowed after a resume: already
      // counted, never emit twice.
      ++r.frames_skipped;
      m_skipped.add(1);
      return;
    }
    const std::span<const std::byte> wire = s.output_frame.bytes();
    r.digest = fnv1a(r.digest, wire);
    r.bytes_emitted += wire.size();
    ++r.frames_emitted;
    m_emitted.add(1);
    if (stream_->collect_outputs) {
      r.outputs.emplace_back(wire.begin(), wire.end());
    }
    if (stream_->track_latency) {
      std::lock_guard lk(latency_mu_);
      if (const auto it = born_.find(k); it != born_.end()) {
        sink_latencies_s.push_back(seconds_since(it->second));
        born_.erase(it);
      }
    }
    if (stream_->on_sink_frame) stream_->on_sink_frame(s.node->id, k);
    if (windowed_ && r.frames_emitted % stream_->checkpoint_window == 0) {
      checkpoint_->record(
          app_, s.node->id,
          static_cast<int>(r.frames_emitted / stream_->checkpoint_window),
          s.host, encode_sink(r));
      ++r.windows_captured;
      m_windows.add(1);
    }
  }

  /// The stream's resume point for the next round: the lowest durable
  /// sink window.  Reconciles every sink with its durable state first.
  std::uint64_t resume_frame(int round) {
    {
      std::lock_guard lk(latency_mu_);
      born_.clear();
    }
    std::uint64_t resume = std::numeric_limits<std::uint64_t>::max();
    for (Stage& s : stages) {
      if (!s.sink) continue;
      SinkStreamResult durable;
      durable.digest = kFnvOffset;
      if (windowed_) {
        if (const auto entry = checkpoint_->replay(app_, s.node->id)) {
          decode_sink(entry->frame, durable);
        }
      }
      SinkStreamResult& r = *s.sink;
      // A sink whose host died lost its in-memory state and re-emits
      // from its last durable window; a fresh execute() of an app the
      // store already holds starts there too.
      if (s.sink_lost || durable.frames_emitted > r.frames_emitted) {
        if (s.sink_lost && r.frames_emitted > durable.frames_emitted) {
          const std::uint64_t lost = r.frames_emitted - durable.frames_emitted;
          r.frames_rolled_back += lost;
          static common::Counter& m_rolled_back =
              metric("streaming.frames_rolled_back");
          m_rolled_back.add(lost);
        }
        r.frames_emitted = durable.frames_emitted;
        r.digest = durable.digest;
        r.bytes_emitted = durable.bytes_emitted;
        r.outputs = std::move(durable.outputs);
        s.sink_lost = false;
      }
      resume = std::min(resume, durable.frames_emitted);
    }
    if (round > 1) {
      frames_resumed += resume;
      static common::Counter& m_resumed = metric("streaming.frames_resumed");
      m_resumed.add(resume);
      if (resume > 0) {
        common::log_info("engine", "app ", app_.value(),
                         ": resuming from checkpoint window at frame ",
                         resume);
      }
    }
    return resume;
  }

  /// The Application Controller's pre-compute guards on the stage's
  /// current host, once per frame before its receives.  A host the
  /// fault guard reports down never gets the frame; a dead host's load
  /// reading is meaningless, so the load guard comes second: "If the
  /// current load on any of these machines is more than a predefined
  /// threshold value, the Application Controller terminates the task
  /// execution on the machine and sends a task rescheduling request".
  std::optional<RescheduleRequest> guard(const Stage& s) const {
    if (ft_ == nullptr) return std::nullopt;
    using Kind = RescheduleRequest::Kind;
    const auto refuse = [&](Kind kind, std::string reason, double load) {
      RescheduleRequest r;
      r.app = app_;
      r.task = s.node->id;
      r.host = s.host;
      r.observed_load = load;
      r.kind = kind;
      r.reason = std::move(reason);
      return r;
    };
    if (ft_->host_alive && !ft_->host_alive(s.host)) {
      return refuse(Kind::kHostFailure,
                    "host " + std::to_string(s.host.value()) + " is down",
                    0.0);
    }
    const double threshold = config_.load_threshold;
    if (ft_->host_load && std::isfinite(threshold)) {
      const double load = ft_->host_load(s.host);
      if (load > threshold) {
        return refuse(Kind::kLoadThreshold,
                      "load " + std::to_string(load) + " above threshold " +
                          std::to_string(threshold),
                      load);
      }
    }
    return std::nullopt;
  }

  /// In-place recovery of a guard refusal before the stage's first frame
  /// of this round, channels intact: the recovery decision, then report,
  /// re-place, back off.  The next frame's guard reads the new host.
  /// False when the refusal must stand.
  bool re_place(Stage& s, const RescheduleRequest& refusal) {
    const StageFacts refused{
        .attempts = s.attempts,
        .host_alive = refusal.kind != RescheduleRequest::Kind::kHostFailure,
        .outcome = AttemptOutcome::kRefused};
    if (!recovery_on_ ||
        decide_recovery({&refused, 1}, 0, config_.max_attempts)[0].action ==
            RecoveryAction::kFail) {
      return false;
    }
    charge(s, refusal);
    if (!relocate(s)) {
      // The round end throws for the first stranded stage in graph order.
      std::lock_guard lk(mu_);
      if (stranded_ == nullptr || &s < stranded_) stranded_ = &s;
      return false;
    }
    backoff_sleep(s);
    return true;
  }

  /// After a failed round: one recovery decision over every stage, then
  /// its I/O -- a failure report per charge, a re-placement per move --
  /// and one backoff nap.  Throws when recovery is off, a stage is out
  /// of attempts, or a re-placement finds no host.
  void recover() {
    Stage& cause = *cause_;
    const std::string what = failed_what(cause);
    if (!recovery_on_) throw common::StateError(what);
    if (stranded_ != nullptr) {
      throw no_host(*stranded_, failed_what(*stranded_));
    }
    std::vector<StageFacts> facts;
    for (const Stage& s : stages) {
      facts.push_back({s.attempts,
                       s.ended == AttemptOutcome::kCompleted ||
                           !ft_->host_alive || ft_->host_alive(s.host),
                       s.ended});
    }
    const std::vector<RecoveryDecision> decisions = decide_recovery(
        facts, static_cast<std::size_t>(&cause - stages.data()),
        config_.max_attempts);
    for (std::size_t i = 0; i < stages.size(); ++i) {
      if (decisions[i].action == RecoveryAction::kFail) {
        throw common::StateError(attempts_exceeded(
            stages[i].node->label, config_.max_attempts, what));
      }
    }
    for (std::size_t i = 0; i < stages.size(); ++i) {
      Stage& s = stages[i];
      if (!decisions[i].charge) continue;
      using Kind = RescheduleRequest::Kind;
      const Kind kind = !facts[i].host_alive ? Kind::kHostFailure
                        : s.ended == AttemptOutcome::kRefused
                            ? Kind::kLoadThreshold
                            : Kind::kTaskError;
      charge(s, {.app = app_, .task = s.node->id, .host = s.host,
                 .kind = kind, .reason = s.error});
      if (decisions[i].action != RecoveryAction::kMove) continue;
      s.sink_lost = s.sink.has_value();
      if (!relocate(s)) throw no_host(s, what);
    }
    backoff_sleep(cause);
    common::log_info("engine", "app ", app_.value(), ": ", what,
                     "; starting round ", restarts + 2);
  }

  /// One charged attempt: the stage's next run counts, and the failure
  /// is reported before any re-placement asks for another host (the
  /// repository learns a dead host is down first).
  void charge(Stage& s, const RescheduleRequest& report) {
    ++s.attempts;
    if (ft_->on_failure) ft_->on_failure(report);
  }

  static std::string failed_what(const Stage& s) {
    return "task " + s.node->label + " failed: " + s.error;
  }

  static common::StateError no_host(const Stage& s, const std::string& what) {
    return common::StateError("no feasible host left for task " +
                              s.node->label + " (" + what + ")");
  }

  /// Excludes the stage's host and asks the rescheduler for another;
  /// false when no feasible host remains.
  bool relocate(Stage& s) {
    s.excluded.push_back(s.host);
    const auto replacement = ft_->reschedule(*s.node, s.excluded);
    if (!replacement) return false;
    s.host = replacement->primary_host();
    ++s.moves;
    common::log_info("engine", "app ", app_.value(), " task ",
                     s.node->label, " re-placed on host ", s.host.value());
    if (common::trace_enabled()) {
      common::trace_instant("re_placed", "engine",
                            {{"app", std::to_string(app_.value())},
                             {"task", s.node->label},
                             {"host", std::to_string(s.host.value())},
                             {"excluded", hosts_csv(s.excluded)}});
    }
    return true;
  }

  /// One retry-backoff nap: jittered so lockstep retries de-correlate,
  /// clamped so the task's CUMULATIVE backoff never exceeds
  /// kMaxTotalBackoffS (an in-place sleep stalls every peer blocked on
  /// this task's channels), routed through the FaultTolerance sleep
  /// hook when one is installed (tests sleep virtually), and advanced
  /// for the next retry.  The jitter draw is seeded from (engine seed,
  /// app, task, attempt) -- never from implicit global state -- so a
  /// replay with the same seed sleeps the exact same schedule.
  void backoff_sleep(Stage& s) {
    common::Rng jitter_rng(
        config_.seed ^ (static_cast<std::uint64_t>(app_.value()) << 32) ^
        s.node->id.value() ^
        (0xC4CEB9FE1A85EC53ull * static_cast<std::uint64_t>(s.attempts)));
    const double jittered =
        s.backoff_s *
        (1.0 + kRetryBackoffJitter * (jitter_rng.uniform() - 0.5));
    const double nap =
        std::min(jittered, kMaxTotalBackoffS - s.backoff_spent_s);
    if (nap > 0.0) {
      if (common::trace_enabled()) {
        common::trace_instant("retry_backoff", "engine",
                              {{"app", std::to_string(app_.value())},
                               {"task", s.node->label},
                               {"sleep_s", std::to_string(nap)}});
      }
      if (ft_ != nullptr && ft_->sleep) {
        ft_->sleep(nap);
      } else {
        std::this_thread::sleep_for(std::chrono::duration<double>(nap));
      }
      s.backoff_spent_s += nap;
    }
    s.backoff_s *= kRetryBackoffMultiplier;
  }

  const tasklib::TaskRegistry& registry_;
  const EngineConfig& config_;
  const afg::FlowGraph& graph_;
  const FaultTolerance* ft_;
  const common::AppId app_;
  dm::ConsoleService* console_;
  const StreamingConfig* stream_;
  CheckpointStore* checkpoint_;
  const std::atomic<std::uint64_t>* stop_;
  const std::uint64_t stop_generation_;
  dm::ChannelBroker broker_;
  const bool recovery_on_;
  const bool windowed_;
  std::unordered_map<TaskId, std::size_t> index_;
  std::unordered_map<TaskId, std::size_t> rank_;  // topological position
  Clock::time_point gang_start_ = Clock::now();
  // mu_ guards cause_, stranded_, the stage errors and the ring totals;
  // latency_mu_ guards born_ and sink_latencies_s.
  std::mutex mu_;
  Stage* cause_ = nullptr;
  Stage* stranded_ = nullptr;  // an in-place re-placement found no host
  std::mutex latency_mu_;
  std::map<std::uint64_t, Clock::time_point> born_;
};

/// The engine.* counters of one stage's run, batch or stream: its
/// charged attempts, the retries among them, and its re-placements.
void count_stage(const StageRunner::Stage& s) {
  static common::Counter& m_attempts = metric("engine.attempts");
  static common::Counter& m_retries = metric("engine.retries");
  static common::Counter& m_reschedules = metric("engine.reschedules");
  m_attempts.add(static_cast<std::uint64_t>(s.attempts));
  m_retries.add(static_cast<std::uint64_t>(s.attempts - 1));
  m_reschedules.add(s.moves);
}

}  // namespace

ExecutionEngine::ExecutionEngine(const tasklib::TaskRegistry& registry,
                                 EngineConfig config)
    : registry_(&registry), config_(config) {}

RunResult ExecutionEngine::execute(const afg::FlowGraph& graph,
                                   const sched::AllocationTable& allocation,
                                   SiteManager* feedback,
                                   dm::ConsoleService* console,
                                   const FaultTolerance* ft,
                                   common::AppId app) {
  if (!app.valid()) {
    app = common::AppId{next_app_.fetch_add(1, std::memory_order_relaxed)};
  }
  StageRunner runner(*registry_, config_, graph, allocation, ft, app, console);

  common::ScopedSpan app_span("execute", "engine");
  if (app_span.active()) {
    app_span.rename("app:" + graph.name());
    app_span.arg("app", app.value());
    app_span.arg("tasks", graph.task_count());
  }

  runner.run();

  static common::Counter& m_completed = metric("engine.tasks_completed");
  static common::Histogram& m_turnaround =
      common::MetricsRegistry::global().histogram("engine.turnaround_s");
  static common::Counter& m_recovered = metric("engine.failures_recovered");
  RunResult result;
  result.app = app;
  for (StageRunner::Stage& s : runner.stages) {
    TaskRunRecord rec;
    rec.task = s.node->id;
    rec.label = s.node->label;
    rec.library_task = s.node->library_task;
    rec.host = s.host;
    rec.turnaround_s = s.turnaround_s;
    rec.compute_s = s.compute_s;
    rec.bytes_sent = s.io.bytes_sent;
    rec.bytes_received = s.io.bytes_received;
    rec.attempts = s.attempts;
    result.makespan_s = std::max(result.makespan_s, s.turnaround_s);
    if (s.attempts > 1) ++result.failures_recovered;
    result.reschedules += s.moves;
    m_completed.add(1);
    count_stage(s);
    m_turnaround.observe(s.turnaround_s);
    if (feedback != nullptr) {
      feedback->record_task_time(s.node->library_task, s.compute_s);
    }
    result.records.push_back(rec);
    result.outputs.emplace(s.node->id, std::move(s.output));
  }
  m_recovered.add(result.failures_recovered);
  if (app_span.active()) {
    app_span.arg("makespan_s", result.makespan_s);
    app_span.arg("failures_recovered", result.failures_recovered);
    app_span.arg("reschedules", result.reschedules);
  }
  common::log_info("engine", "app ", app.value(), " finished; makespan ",
                   result.makespan_s, "s (", result.failures_recovered,
                   " failures recovered, ", result.reschedules,
                   " reschedules)");
  return result;
}

StreamingEngine::StreamingEngine(const tasklib::TaskRegistry& registry,
                                 StreamingConfig config)
    : registry_(&registry), config_(std::move(config)) {}

StreamRunResult StreamingEngine::execute(const afg::FlowGraph& graph,
                                         const sched::AllocationTable& alloc,
                                         const FaultTolerance* ft,
                                         common::AppId app,
                                         CheckpointStore* checkpoint) {
  if (!app.valid()) app = common::AppId(next_app_.fetch_add(1));
  const auto t_start = Clock::now();
  StageRunner runner(*registry_, config_, graph, alloc, ft, app, nullptr,
                     &config_, checkpoint, &stop_);
  runner.run();

  StreamRunResult run;
  run.app = app;
  for (StageRunner::Stage& s : runner.stages) {
    count_stage(s);
    run.stage_frames[s.node->id] = s.frames;
    if (s.source) run.source_frames += s.frames;
    run.reschedules += s.moves;
    if (s.sink) run.sinks[s.node->id] = std::move(*s.sink);
  }
  run.frames_resumed = runner.frames_resumed;
  run.restarts = runner.restarts;
  run.max_ring_occupancy = runner.max_ring_occupancy;
  run.producer_parks = runner.producer_parks;
  run.sink_latencies_s = std::move(runner.sink_latencies_s);
  run.elapsed_s = seconds_since(t_start);
  return run;
}

}  // namespace vdce::rt
