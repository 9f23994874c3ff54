// Process probes, order statistics and the span recorder.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "common/metrics.hpp"

namespace vdce::perfbench {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::infinity();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double self_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double pid_cpu_s(std::int64_t pid) {
  if (pid <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name: state is field 3,
  // utime/stime are fields 14/15.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(std::int64_t pid) {
  const std::string path =
      pid <= 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t involuntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_nivcsw);
}

std::uint64_t steal_jiffies() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t value = 0;
  in >> label;
  for (int i = 1; i <= 8 && in >> value; ++i) {
    if (i == 8) return value;
  }
  return 0;
}

std::uint64_t counter(const char* name) {
  return common::MetricsRegistry::global().counter(name).value();
}

std::string noise_line(const HostNoise& from, const HostNoise& to) {
  return "steal_jiffies=" + std::to_string(to.steal - from.steal) +
         " involuntary_switches=" + std::to_string(to.nivcsw - from.nivcsw);
}

WindowSampler::WindowSampler(std::vector<std::int64_t> pids)
    : pids_(std::move(pids)) {
  sample();
  thread_ = std::thread([this] {
    std::unique_lock lk(mu_);
    while (!cv_.wait_for(lk, std::chrono::milliseconds(20),
                         [this] { return stopping_; })) {
      lk.unlock();
      sample();
      lk.lock();
    }
  });
}

WindowSampler::~WindowSampler() { stop(); }

void WindowSampler::stop() {
  {
    std::lock_guard lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  sample();
}

void WindowSampler::sample() {
  Sample s;
  s.cpu_s = self_cpu_s();
  for (const auto pid : pids_) s.cpu_s += pid_cpu_s(pid);
  s.steal = static_cast<double>(steal_jiffies());
  s.t = now_s();
  std::lock_guard lk(mu_);
  samples_.push_back(s);
}

double WindowSampler::at(double t, double Sample::*field) const {
  std::lock_guard lk(mu_);
  if (samples_.empty()) return 0.0;
  const auto later = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const Sample& s, double v) { return s.t < v; });
  if (later == samples_.begin()) return (*later).*field;
  if (later == samples_.end()) return samples_.back().*field;
  const Sample& b = *later;
  const Sample& a = *(later - 1);
  return b.t > a.t ? a.*field + (b.*field - a.*field) * (t - a.t) / (b.t - a.t)
                   : b.*field;
}

double WindowSampler::cpu_at(double t) const {
  return at(t, &Sample::cpu_s);
}

double WindowSampler::steal_at(double t) const {
  return at(t, &Sample::steal);
}

SegmentedWindow segment_window(std::vector<std::pair<double, double>> ops,
                               double start_s, const WindowSampler& sampler,
                               int segments) {
  struct Segment {
    double steal_per_s, rate, p50, p90, cpu_per_op;
  };
  std::sort(ops.begin(), ops.end());
  std::vector<Segment> all;
  const std::size_t n = ops.size();
  double begin = start_s;
  for (int i = 0; i < segments; ++i) {
    const std::size_t lo = n * static_cast<std::size_t>(i) /
                           static_cast<std::size_t>(segments);
    const std::size_t hi = n * static_cast<std::size_t>(i + 1) /
                           static_cast<std::size_t>(segments);
    if (hi <= lo) continue;
    const double end = ops[hi - 1].first;
    const double span = std::max(end - begin, 1e-9);
    const auto count = static_cast<double>(hi - lo);
    std::vector<double> latency;
    for (std::size_t j = lo; j < hi; ++j) latency.push_back(ops[j].second);
    all.push_back(
        {(sampler.steal_at(end) - sampler.steal_at(begin)) / span,
         count / span, quantile(latency, 0.50), quantile(latency, 0.90),
         (sampler.cpu_at(end) - sampler.cpu_at(begin)) * 1e3 / count});
    begin = end;
  }
  // Stable: equal steal keeps completion order, so the choice repeats.
  std::stable_sort(all.begin(), all.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.steal_per_s < b.steal_per_s;
                   });
  const std::size_t kept = (all.size() + 1) / 2;
  std::vector<double> rates, p50, p90, cpu, kept_steal, dropped_steal;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i >= kept) {
      dropped_steal.push_back(all[i].steal_per_s);
      continue;
    }
    rates.push_back(all[i].rate);
    p50.push_back(all[i].p50);
    p90.push_back(all[i].p90);
    cpu.push_back(all[i].cpu_per_op);
    kept_steal.push_back(all[i].steal_per_s);
  }
  return {median(rates),      median(p50),        median(p90),
          median(cpu),        median(kept_steal), median(dropped_steal)};
}

void SpanRecorder::add(std::uint64_t id, std::uint64_t parent,
                       std::uint64_t op, const char* name, double start_s,
                       double end_s) {
  std::lock_guard lk(mu_);
  spans_.push_back(Span{id, parent, op, name, start_s, end_s});
}

void SpanRecorder::add_child(std::uint64_t parent, std::uint64_t op,
                             const char* name, double start_s, double end_s) {
  // Fresh ids live far above every op_span/submit_span/wait_span id.
  constexpr std::uint64_t kFreshBase = std::uint64_t{1} << 48;
  add(kFreshBase + next_id_.fetch_add(1, std::memory_order_relaxed), parent,
      op, name, start_s, end_s);
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lk(mu_);
  return spans_.size();
}

void SpanRecorder::clear() {
  std::lock_guard lk(mu_);
  spans_.clear();
}

bool SpanRecorder::write_csv(const std::string& path, double origin_s) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,op,name,start_us,end_us\n";
  std::lock_guard lk(mu_);
  out << std::fixed << std::setprecision(1);
  for (const Span& s : spans_) {
    out << s.id << ',' << s.parent << ',' << s.op << ',' << s.name << ','
        << (s.start_s - origin_s) * 1e6 << ',' << (s.end_s - origin_s) * 1e6
        << '\n';
  }
  return static_cast<bool>(out);
}

std::string fmt(double value) {
  if (!std::isfinite(value)) return value > 0 ? "1e308" : "-1e308";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10)
     << value;
  return os.str();
}

}  // namespace vdce::perfbench
