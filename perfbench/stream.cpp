// The stream_pipeline workload: the four-stage stream (windowed source
// -> 3/2 resampler -> power spectrum -> sink) over RingChannels,
// unpaced, so backpressure closes the loop.  The resampler's host dies
// once at a fixed frame and the stream resumes from the last durable
// checkpoint window.  No scheduler, admission, gang or socket is on
// this path.
#include <algorithm>
#include <condition_variable>
#include <iomanip>
#include <sstream>

#include "bench.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/streaming.hpp"
#include "seams.hpp"

namespace vdce::perfbench {
namespace {

using common::AppId;
using common::HostId;
using common::SiteId;
using common::TaskId;

/// Set-ups per run (setup_s is their median).
constexpr int kSetups = 5;
/// Source window length in 64-sample units.  1024-sample windows make
/// the spectrum stage the one clear bottleneck (~0.95 busy against the
/// resampler's ~0.65), so the rings ahead of it stay full and latency
/// is set by that stage.  With 64-sample windows the resampler and the
/// spectrum stage are about equally fast, ring occupancy random-walks,
/// and p50 latency spread by 18% over five runs.
constexpr double kWindowUnits = 16.0;
/// Frames of each untimed warm-up stream.
constexpr std::uint64_t kWarmupFrames = 1500;
/// Timed frames per second of --seconds (fixes the op count).
constexpr double kFramesPerSecond = 5000.0;
constexpr std::size_t kCapacity = 8;
constexpr std::uint64_t kWindow = 64;
/// The death lands this many frames into a checkpoint window, so the
/// resume re-flows exactly this many frames past the sink.
constexpr std::uint64_t kFaultOffset = 37;
constexpr AppId kTimedApp{7001};
/// The traced run keeps task-function spans of every this-many-th frame.
constexpr std::uint64_t kSpanSample = 256;
/// The window's metrics come from this many segments (see
/// segment_window).
constexpr int kSegments = 16;

afg::FlowGraph make_graph() {
  afg::FlowGraph g("stream_pipeline");
  afg::TaskProperties props;
  props.input_size = kWindowUnits;
  const TaskId src = g.add_task("stream_window_source", "src", props);
  const TaskId rs = g.add_task("stream_resample", "rs");
  const TaskId fft = g.add_task("stream_window_fft", "fft");
  const TaskId sink = g.add_task("stream_sink", "sink");
  g.add_link(src, rs, 0.001);
  g.add_link(rs, fft, 0.001);
  g.add_link(fft, sink, 0.001);
  return g;
}

sched::AllocationTable make_allocation(const afg::FlowGraph& g) {
  sched::AllocationTable table(g.name());
  std::uint64_t host = 1;
  for (const auto& node : g.tasks()) {
    sched::AllocationEntry e;
    e.task = node.id;
    e.task_label = node.label;
    e.library_task = node.library_task;
    e.hosts = {HostId(host++)};
    e.site = SiteId(0);
    table.add(e);
  }
  return table;
}

/// The planned fault: the resampler's host refuses frame `fault_frame`
/// once the sink has counted every frame before it, so the abort finds
/// no frame in flight and every recovery count is exact.
struct FaultPlan {
  HostId victim;
  std::uint64_t fault_frame = 0;
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t sink_frames = 0;
  std::uint64_t victim_calls = 0;
  bool dead = false;
  double death_s = 0.0;
  double next_frame_s = 0.0;
  std::vector<std::uint8_t> seen;
  std::uint64_t duplicates = 0;
  /// When the sink counted each frame, in emission order (the order of
  /// StreamRunResult::sink_latencies_s).
  std::vector<double> emitted_s;

  void on_sink_frame(std::uint64_t k) {
    const double t = now_s();
    {
      std::lock_guard lk(mu);
      ++sink_frames;
      if (k < seen.size()) {
        if (seen[k] != 0) ++duplicates;
        seen[k] = 1;
      }
      if (k == fault_frame) next_frame_s = t;
      emitted_s.push_back(t);
      if (k + 1 != fault_frame) return;
      death_s = t;
    }
    cv.notify_all();  // the resampler's host may die now
  }

  bool host_alive(HostId host) {
    if (host != victim) return true;
    std::unique_lock lk(mu);
    if (dead) return false;
    if (victim_calls++ < fault_frame) return true;
    cv.wait_for(lk, std::chrono::seconds(30),
                [&] { return sink_frames >= fault_frame; });
    dead = true;
    return false;
  }
};

struct StreamWindow {
  rt::StreamRunResult run;
  double start_s = 0.0;
  std::unique_ptr<WindowSampler> sampler;
  double cpu_s = 0.0;
  std::uint64_t restarts = 0;
  std::uint64_t windows = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  HostNoise noise_before, noise_after;
};

StreamWindow faulted_window(const tasklib::TaskRegistry& registry,
                            const afg::FlowGraph& graph,
                            const sched::AllocationTable& allocation,
                            std::uint64_t stream_seed, std::uint64_t frames,
                            FaultPlan& plan) {
  plan.seen.assign(frames, 0);
  plan.emitted_s.reserve(frames);
  rt::StreamingConfig config;
  config.seed = stream_seed;
  config.frames = frames;
  config.channel_capacity = kCapacity;
  config.checkpoint_window = kWindow;
  config.track_latency = true;
  config.on_sink_frame = [&plan](TaskId, std::uint64_t k) {
    plan.on_sink_frame(k);
  };
  rt::FaultTolerance ft;
  ft.host_alive = [&plan](HostId h) { return plan.host_alive(h); };
  ft.reschedule = [](const afg::TaskNode& node, const std::vector<HostId>&)
      -> std::optional<sched::AllocationEntry> {
    sched::AllocationEntry e;
    e.task = node.id;
    e.task_label = node.label;
    e.library_task = node.library_task;
    e.hosts = {HostId(90 + node.id.value())};
    e.site = SiteId(0);
    return e;
  };
  ft.sleep = [](double) {};
  rt::CheckpointStore store;
  rt::StreamingEngine engine(registry, config);

  StreamWindow win;
  const std::uint64_t restarts0 = counter("streaming.restarts");
  const std::uint64_t windows0 = counter("streaming.windows_captured");
  const std::uint64_t frames0 = counter("datamgr.frames_sent");
  const std::uint64_t hits0 = counter("datamgr.pool.reuse_hits");
  const std::uint64_t misses0 = counter("datamgr.pool.reuse_misses");
  win.noise_before = HostNoise::take();
  const double cpu0 = self_cpu_s();
  win.sampler = std::make_unique<WindowSampler>(std::vector<std::int64_t>{});
  win.start_s = now_s();
  win.run = engine.execute(graph, allocation, &ft, kTimedApp, &store);
  win.sampler->stop();
  win.cpu_s = self_cpu_s() - cpu0;
  win.noise_after = HostNoise::take();
  win.restarts = counter("streaming.restarts") - restarts0;
  win.windows = counter("streaming.windows_captured") - windows0;
  win.frames_sent = counter("datamgr.frames_sent") - frames0;
  win.pool_hits = counter("datamgr.pool.reuse_hits") - hits0;
  win.pool_misses = counter("datamgr.pool.reuse_misses") - misses0;
  return win;
}

/// A fault-free stream (warm-up, and the digest reference).
rt::StreamRunResult clean_stream(const tasklib::TaskRegistry& registry,
                                 const afg::FlowGraph& graph,
                                 const sched::AllocationTable& allocation,
                                 std::uint64_t seed, std::uint64_t frames,
                                 AppId app) {
  rt::StreamingConfig config;
  config.seed = seed;
  config.frames = frames;
  config.channel_capacity = kCapacity;
  rt::StreamingEngine engine(registry, config);
  return engine.execute(graph, allocation, nullptr, app);
}

}  // namespace

Report run_stream(const Options& options) {
  const afg::FlowGraph graph = make_graph();
  const sched::AllocationTable allocation = make_allocation(graph);
  const TaskId sink = *graph.find_by_label("sink");
  const std::uint64_t stream_seed = mix(options.seed);
  std::uint64_t frames = static_cast<std::uint64_t>(
      std::llround(kFramesPerSecond * options.seconds));
  frames = std::max<std::uint64_t>(frames / kWindow, 4) * kWindow;
  const std::uint64_t fault_frame = (frames / 2 / kWindow) * kWindow +
                                    kFaultOffset;

  Report report;
  report.attempted = frames;
  const tasklib::TaskRegistry& builtin = tasklib::builtin_registry();

  // Set-up: warm-up streams (rings, frame pool, kernels), several times.
  std::vector<double> setups;
  const int setups_wanted = options.trace ? 1 : kSetups;
  for (int r = 0; r < setups_wanted; ++r) {
    const double t0 = now_s();
    const auto warm = clean_stream(builtin, graph, allocation,
                                   mix(stream_seed + 1 + r), kWarmupFrames,
                                   AppId(static_cast<std::uint32_t>(100 + r)));
    report.check(warm.sinks.at(sink).frames_emitted == kWarmupFrames,
                 "warm-up stream lost frames");
    setups.push_back(now_s() - t0);
  }

  const auto make_plan = [&] {
    auto plan = std::make_unique<FaultPlan>();
    plan->victim = allocation.entry(*graph.find_by_label("rs")).primary_host();
    plan->fault_frame = fault_frame;
    return plan;
  };

  auto plan = make_plan();
  StreamWindow win =
      faulted_window(builtin, graph, allocation, stream_seed, frames, *plan);
  const double untraced_ops_per_s =
      static_cast<double>(win.run.sinks.at(sink).frames_emitted) /
      win.run.elapsed_s;

  ComputeTally tally;
  SpanRecorder spans;
  double traced_origin = 0.0;
  if (options.trace) {
    // A stage's Rng seed is stream_frame_seed(seed, k) ^ (app << 32) ^
    // task = seed ^ k * golden ^ (app << 32) ^ task: solve for frame k.
    const std::uint64_t inv_golden = inverse_odd(0x9E3779B97F4A7C15ull);
    const tasklib::TaskRegistry traced = timed_registry(
        tally, [&](std::uint64_t rng_seed_value, std::size_t slot, double t0,
                   double t1) {
          const std::uint64_t app_bits =
              static_cast<std::uint64_t>(kTimedApp.value()) << 32;
          for (std::uint64_t t = 0; t < graph.task_count(); ++t) {
            const std::uint64_t k =
                (rng_seed_value ^ app_bits ^ t ^ stream_seed) * inv_golden;
            if (k >= frames ||
                graph.task(TaskId(t)).library_task != tally.name(slot)) {
              continue;
            }
            if (k % kSpanSample == 0) {
              spans.add_child(0, k, tally.name(slot), t0, t1);
            }
            return;
          }
        });
    (void)clean_stream(traced, graph, allocation, mix(stream_seed + 9),
                       kWarmupFrames, AppId(199));
    tally.reset();
    spans.clear();
    plan = make_plan();
    traced_origin = now_s();
    win = faulted_window(traced, graph, allocation, stream_seed, frames,
                         *plan);
  }

  const rt::SinkStreamResult& s = win.run.sinks.at(sink);
  report.failed = frames > s.frames_emitted ? frames - s.frames_emitted : 0;
  const double ops_per_s =
      static_cast<double>(s.frames_emitted) / win.run.elapsed_s;

  if (!options.trace) {
    const auto& latency_s = win.run.sink_latencies_s;
    report.check(latency_s.size() == plan->emitted_s.size(),
                 "latency samples do not match emitted frames");
    std::vector<std::pair<double, double>> ops;
    std::vector<double> latency_ms;
    for (std::size_t i = 0; i < latency_s.size() && i < plan->emitted_s.size();
         ++i) {
      ops.emplace_back(plan->emitted_s[i], latency_s[i] * 1e3);
      latency_ms.push_back(latency_s[i] * 1e3);
    }
    const SegmentedWindow seg =
        segment_window(std::move(ops), win.start_s, *win.sampler, kSegments);
    report.set("setup_s", median(setups), "s");
    report.set("ops_per_s", seg.ops_per_s, "1/s");
    report.set("latency_p50_ms", seg.p50_ms, "ms");
    report.set("latency_p90_ms", seg.p90_ms, "ms");
    report.set("cpu_ms_per_op", seg.cpu_ms_per_op, "ms");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::ostringstream os;
    os << std::fixed << std::setprecision(3) << "whole window: ops_per_s "
       << ops_per_s << " latency_p50_ms " << quantile(latency_ms, 0.50)
       << " latency_p90_ms " << quantile(latency_ms, 0.90)
       << " cpu_ms_per_op "
       << win.cpu_s * 1e3 / std::max<double>(1.0, s.frames_emitted)
       << "; steal jiffies/s in kept segments " << seg.kept_steal_per_s
       << ", in the others " << seg.dropped_steal_per_s;
    report.notes.push_back(os.str());
  } else {
    const double window_s = win.run.elapsed_s;
    const double n = static_cast<double>(frames);
    for (const auto& [name, label] :
         {std::pair{"stream_window_source", "src"},
          std::pair{"stream_resample", "rs"},
          std::pair{"stream_window_fft", "fft"},
          std::pair{"stream_sink", "sink"}}) {
      report.set(std::string("tasklib.stage_busy.") + label,
                 tally.busy_s(name) / window_s, "ratio");
    }
    report.set("tasklib.compute_ms_per_op", tally.total_s() * 1e3 / n, "ms");
    report.set("datamgr.frames_per_op",
               static_cast<double>(win.frames_sent) / n, "count");
    report.set("datamgr.bytes_per_op",
               static_cast<double>(s.bytes_emitted) / n, "B");
    const double pool = static_cast<double>(win.pool_hits + win.pool_misses);
    report.set("datamgr.pool.miss_ratio",
               pool > 0 ? static_cast<double>(win.pool_misses) / pool : 0.0,
               "ratio");
    report.set("datamgr.ring.parks_per_frame",
               static_cast<double>(win.run.producer_parks) / n, "ratio");
    report.set("datamgr.ring.max_occupancy",
               static_cast<double>(win.run.max_ring_occupancy), "count");
    report.set("runtime.streaming.recovery_gap_ms",
               (plan->next_frame_s - plan->death_s) * 1e3, "ms");
    report.set("runtime.streaming.frames_reflowed",
               static_cast<double>(s.frames_skipped + s.frames_rolled_back),
               "count");
    report.set("runtime.checkpoint.windows_captured",
               static_cast<double>(s.windows_captured), "count");
    std::ostringstream overhead;
    overhead << std::fixed << std::setprecision(1)
             << "tracing overhead: ops_per_s untraced " << untraced_ops_per_s
             << " traced " << ops_per_s << " ("
             << 100.0 * (1.0 - ops_per_s / untraced_ops_per_s)
             << "% lower), " << spans.size() << " spans (every "
             << kSpanSample << "th frame)";
    report.notes.push_back(overhead.str());
    if (!options.spans_path.empty() &&
        !spans.write_csv(options.spans_path, traced_origin)) {
      report.notes.push_back("could not write " + options.spans_path);
    }
  }
  report.notes.push_back("diagnostics: " +
                         noise_line(win.noise_before, win.noise_after));

  // Output checks, untimed: exactly-once, the planned recovery, and a
  // digest equal to a fault-free stream of the same seed and app.
  report.check(s.frames_emitted == frames,
               "sink emitted " + std::to_string(s.frames_emitted) + " of " +
                   std::to_string(frames) + " frames");
  const bool all_seen = std::all_of(plan->seen.begin(), plan->seen.end(),
                                    [](std::uint8_t v) { return v != 0; });
  report.check(all_seen && plan->duplicates == 0,
               "sink did not count every frame exactly once");
  report.check(win.restarts == 1 && win.run.restarts == 1,
               "streaming.restarts " + std::to_string(win.restarts) +
                   " != planned 1");
  report.check(win.windows == frames / kWindow &&
                   s.windows_captured == frames / kWindow,
               "windows_captured " + std::to_string(s.windows_captured) +
                   " != planned " + std::to_string(frames / kWindow));
  report.check(s.frames_skipped == kFaultOffset && s.frames_rolled_back == 0,
               "frames re-flowed " + std::to_string(s.frames_skipped) + "+" +
                   std::to_string(s.frames_rolled_back) + " != planned " +
                   std::to_string(kFaultOffset));
  const auto reference =
      clean_stream(builtin, graph, allocation, stream_seed, frames, kTimedApp);
  report.check(reference.sinks.at(sink).digest == s.digest,
               "stream digest differs from the fault-free run");
  report.notes.push_back("checks: " + std::to_string(frames) +
                         " frames exactly once, digest equals fault-free "
                         "run, 1 restart, " +
                         std::to_string(s.windows_captured) + " windows, " +
                         std::to_string(s.frames_skipped) + " re-flowed");
  return report;
}

}  // namespace vdce::perfbench
