// Shared pieces of the end-to-end benchmark: run options, the report
// every workload fills in, process probes (/proc, getrusage), order
// statistics, and the in-memory span recorder of the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace vdce::perfbench {

/// Command-line options common to every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string spans_path;
};

/// One named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `metrics` holds the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Why `correct` is false (one line each).
  std::vector<std::string> problems;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// `p`-quantile (0..1) by nearest rank; +inf entries sort last.
[[nodiscard]] double quantile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// User+system CPU seconds of this process.
[[nodiscard]] double self_cpu_s();
/// User+system CPU seconds of another process from /proc/<pid>/stat
/// (0 when it cannot be read).
[[nodiscard]] double pid_cpu_s(std::int64_t pid);
/// Peak resident set (VmHWM) in MB of a process; pid 0 = this one.
[[nodiscard]] double peak_rss_mb(std::int64_t pid = 0);
/// Involuntary context switches of this process so far.
[[nodiscard]] std::uint64_t involuntary_switches();
/// Host steal time so far, in jiffies, summed over all CPUs.
[[nodiscard]] std::uint64_t steal_jiffies();
/// Value of a global MetricsRegistry counter.
[[nodiscard]] std::uint64_t counter(const char* name);

/// Samples, on a fixed period while a window runs, the CPU time of this
/// process plus some daemons and the host's steal time, so both can be
/// read at any instant of the window.
class WindowSampler {
 public:
  explicit WindowSampler(std::vector<std::int64_t> pids);
  /// Stops sampling and joins the sampling thread.
  ~WindowSampler();
  WindowSampler(const WindowSampler&) = delete;
  WindowSampler& operator=(const WindowSampler&) = delete;

  /// Takes a last sample and stops; idempotent.
  void stop();
  /// CPU seconds (process + daemons) at steady-clock time `t`,
  /// interpolated between samples.
  [[nodiscard]] double cpu_at(double t) const;
  /// Host steal jiffies at `t`, interpolated between samples.
  [[nodiscard]] double steal_at(double t) const;

 private:
  struct Sample {
    double t = 0.0;
    double cpu_s = 0.0;
    double steal = 0.0;
  };
  void sample();
  [[nodiscard]] double at(double t, double Sample::*field) const;

  std::vector<std::int64_t> pids_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  /// In time order.
  std::vector<Sample> samples_;
  std::thread thread_;
};

/// Window metrics taken per segment of the window.  Host steal comes in
/// bursts of a fraction of a second on a shared VM; the segments are
/// ranked by the steal they saw, and each metric is the median over the
/// less disturbed half, so a burst cannot move it.
struct SegmentedWindow {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double cpu_ms_per_op = 0.0;
  /// Steal jiffies per second in the kept segments and in the others.
  double kept_steal_per_s = 0.0;
  double dropped_steal_per_s = 0.0;
};

/// `ops` holds (completion time, latency ms) per op (+inf latency for a
/// failed op).  Splits the ops, in completion order, into `segments`
/// equal parts; the first part starts at `start_s`.
[[nodiscard]] SegmentedWindow segment_window(
    std::vector<std::pair<double, double>> ops, double start_s,
    const WindowSampler& sampler, int segments);

/// Snapshot of the host-noise diagnostics, taken around a window.
struct HostNoise {
  std::uint64_t steal = 0;
  std::uint64_t nivcsw = 0;
  static HostNoise take() { return {steal_jiffies(), involuntary_switches()}; }
};
/// "steal_jiffies=... involuntary_switches=..." over [from, to].
[[nodiscard]] std::string noise_line(const HostNoise& from,
                                     const HostNoise& to);

/// One recorded span.  Spans of one op share `op`; `parent` is the
/// enclosing span's id (0 = none).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Thread-safe in-memory span store; written out once the run ends.
class SpanRecorder {
 public:
  /// Ids of an op's fixed spans: the op itself, its submit() and its
  /// wait() call (the parents of everything else the op records).
  static std::uint64_t op_span(std::uint64_t op) { return op * 4 + 1; }
  static std::uint64_t submit_span(std::uint64_t op) { return op * 4 + 2; }
  static std::uint64_t wait_span(std::uint64_t op) { return op * 4 + 3; }

  void add(std::uint64_t id, std::uint64_t parent, std::uint64_t op,
           const char* name, double start_s, double end_s);
  /// Records a span with a fresh id (ids never collide with op spans).
  void add_child(std::uint64_t parent, std::uint64_t op, const char* name,
                 double start_s, double end_s);
  [[nodiscard]] std::size_t size() const;
  /// Drops every span (the start of a measured window).
  void clear();
  /// Writes one CSV row per span: id,parent,op,name,start_us,end_us
  /// (times relative to `origin_s`).  Returns false on I/O failure.
  bool write_csv(const std::string& path, double origin_s) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// SplitMix64 finaliser: derives independent seeds from one run seed.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Formats a double with all its digits.
[[nodiscard]] std::string fmt(double value);

/// Every per-layer metric a traced run reports, with its unit.  A
/// workload that does not use a layer reports 0 for it.
struct MetricName {
  const char* name;
  const char* unit;
};
inline constexpr MetricName kLayerMetrics[] = {
    {"runtime.submission.submit_ms", "ms"},
    {"runtime.submission.queue_and_start_ms", "ms"},
    {"scheduler.host_selection_ms_per_op", "ms"},
    {"scheduler.host_selections_per_op", "count"},
    {"scheduler.placement_self_ms", "ms"},
    {"scheduler.reschedule_ms", "ms"},
    {"predict.cache_hit_ratio", "ratio"},
    {"daemon.rpc_ms", "ms"},
    {"daemon.cpu_ms_per_op", "ms"},
    {"daemon.rpc_failures", "count"},
    {"runtime.liveness.heartbeats_per_s", "1/s"},
    {"runtime.liveness.suspects", "count"},
    {"runtime.engine.makespan_ms", "ms"},
    {"runtime.engine.noncompute_ms", "ms"},
    {"runtime.engine.attempts_per_task", "ratio"},
    {"tasklib.compute_ms_per_op", "ms"},
    {"tasklib.critical_path_compute_ms", "ms"},
    {"tasklib.stage_busy.src", "ratio"},
    {"tasklib.stage_busy.rs", "ratio"},
    {"tasklib.stage_busy.fft", "ratio"},
    {"tasklib.stage_busy.sink", "ratio"},
    {"datamgr.frames_per_op", "count"},
    {"datamgr.bytes_per_op", "B"},
    {"datamgr.pool.miss_ratio", "ratio"},
    {"datamgr.ring.parks_per_frame", "ratio"},
    {"datamgr.ring.max_occupancy", "count"},
    {"runtime.streaming.recovery_gap_ms", "ms"},
    {"runtime.streaming.frames_reflowed", "count"},
    {"runtime.checkpoint.windows_captured", "count"},
};

/// Workload entry points.
[[nodiscard]] Report run_batch(const Options& options, bool daemon_mode);
[[nodiscard]] Report run_stream(const Options& options);

}  // namespace vdce::perfbench
