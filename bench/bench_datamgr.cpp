// F7 (paper Figure 7): the Data Manager and the execution-environment
// setup protocol.
//
// Two modes:
//   * default: google-benchmark micro-benchmarks over real code paths
//     (a link's whole lifecycle, point-to-point throughput, mp-library
//     envelope overhead, heterogeneous data conversion);
//   * --json [path] [--quick]: the D13/D14 sweep.  Runs the P4
//     endpoint pipeline over both transports and a range of frame
//     sizes, recording throughput, allocations per frame (via global
//     operator new interposition), and p99 producer-to-consumer frame
//     latency.  Then one link_lifecycle row per transport: links per
//     second and process CPU per link for register, connect, one 4 KiB
//     P4 frame and both closes.  Every cell and row runs kSweepRuns
//     times, interleaved, and each figure is reported as its median
//     and quartiles.  Written to BENCH_datamgr.json by default; cited
//     by EXPERIMENTS.md E19 and run by the CI test job's quick sweep.
#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "datamgr/broker.hpp"
#include "datamgr/frame.hpp"
#include "datamgr/mplib.hpp"
#include "tasklib/payload.hpp"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps
// it, so a cell's delta divided by its frame count is the real
// allocations-per-frame figure, event-loop and queue bookkeeping
// included.
//
// GCC cannot see that the replaced operator new is malloc-backed and
// flags the free() in the matching operator delete at every call site.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace vdce;
using dm::ChannelBroker;
using dm::LinkKey;
using dm::MessageEndpoint;
using dm::MpLibrary;
using dm::TransportKind;

std::vector<std::byte> make_blob(std::size_t n) {
  common::Rng rng(1);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xFF);
  return out;
}

/// One link's whole lifecycle against a persistent consumer thread, the
/// stand-in for a stage thread that outlives its links: the consumer
/// registers the link and receives one 4 KiB P4 frame, the caller
/// connects, sends it and closes, and the consumer closes its end.
/// Uses only the public broker API.
class LinkLifecycleRig {
 public:
  explicit LinkLifecycleRig(TransportKind kind)
      : broker_(kind), blob_(make_blob(4096)) {
    consumer_ = std::jthread([this] { consume(); });
  }

  ~LinkLifecycleRig() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
  }

  LinkLifecycleRig(const LinkLifecycleRig&) = delete;
  LinkLifecycleRig& operator=(const LinkLifecycleRig&) = delete;

  void run_one() {
    std::uint32_t link = 0;
    {
      std::lock_guard lk(mu_);
      link = ++posted_;
    }
    cv_.notify_all();
    MessageEndpoint out(MpLibrary::kP4, broker_.open_send(key(link)));
    out.send(7, blob_);
    out.close();
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return done_ == link; });
    lk.unlock();
    broker_.clear_app(common::AppId(1));  // keep the registry at one link
  }

 private:
  static LinkKey key(std::uint32_t link) {
    return LinkKey{common::AppId(1), common::TaskId(2 * link),
                   common::TaskId(2 * link + 1)};
  }

  void consume() {
    for (;;) {
      std::uint32_t link = 0;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return stop_ || posted_ != done_; });
        if (stop_) return;
        link = posted_;
      }
      MessageEndpoint in(MpLibrary::kP4, broker_.open_receive(key(link)));
      benchmark::DoNotOptimize(in.receive_frame());
      in.close();
      {
        std::lock_guard lk(mu_);
        done_ = link;
      }
      cv_.notify_all();
    }
  }

  ChannelBroker broker_;
  const std::vector<std::byte> blob_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint32_t posted_ = 0;
  std::uint32_t done_ = 0;
  bool stop_ = false;
  std::jthread consumer_;  // last: joined before the state it uses dies
};

void BM_ChannelSetup(benchmark::State& state) {
  const auto kind = static_cast<TransportKind>(state.range(0));
  LinkLifecycleRig rig(kind);
  for (auto _ : state) rig.run_one();
  state.SetLabel(kind == TransportKind::kInProcess ? "in-process" : "tcp");
}
BENCHMARK(BM_ChannelSetup)
    ->Arg(static_cast<int>(TransportKind::kInProcess))
    ->Arg(static_cast<int>(TransportKind::kTcp))
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_Throughput(benchmark::State& state) {
  const auto kind = static_cast<TransportKind>(state.range(0));
  const auto size = static_cast<std::size_t>(state.range(1));
  ChannelBroker broker(kind);
  const LinkKey key{common::AppId(1), common::TaskId(0), common::TaskId(1)};
  std::shared_ptr<dm::Channel> rx;
  std::jthread consumer([&] { rx = broker.open_receive(key); });
  auto tx = broker.open_send(key);
  consumer.join();

  const auto blob = make_blob(size);
  // Echo server: receive and discard.
  std::atomic<bool> done{false};
  std::jthread drain([&] {
    try {
      while (rx->receive()) {
        if (done.load(std::memory_order_relaxed)) break;
      }
    } catch (const common::TransportError&) {
      // benchmark teardown may shut the socket mid-message
    }
  });
  for (auto _ : state) {
    tx->send(blob);
  }
  done = true;
  tx->close();
  rx->close();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.SetLabel(kind == TransportKind::kInProcess ? "in-process" : "tcp");
}
BENCHMARK(BM_Throughput)
    ->Args({static_cast<int>(TransportKind::kInProcess), 1 << 10})
    ->Args({static_cast<int>(TransportKind::kInProcess), 1 << 16})
    ->Args({static_cast<int>(TransportKind::kInProcess), 1 << 20})
    ->Args({static_cast<int>(TransportKind::kTcp), 1 << 10})
    ->Args({static_cast<int>(TransportKind::kTcp), 1 << 16})
    ->Args({static_cast<int>(TransportKind::kTcp), 1 << 20});

void BM_FrameThroughput(benchmark::State& state) {
  // The D13 zero-copy path: one pooled frame serialized once via
  // prepare(), shipped with send_prepared(), received as a view.
  const auto kind = static_cast<TransportKind>(state.range(0));
  const auto size = static_cast<std::size_t>(state.range(1));
  ChannelBroker broker(kind);
  const LinkKey key{common::AppId(1), common::TaskId(0), common::TaskId(1)};
  std::shared_ptr<dm::Channel> rx;
  std::jthread consumer([&] { rx = broker.open_receive(key); });
  auto tx_ch = broker.open_send(key);
  consumer.join();
  MessageEndpoint tx(MpLibrary::kP4, tx_ch);
  MessageEndpoint rx_ep(MpLibrary::kP4, rx);

  const auto blob = make_blob(size);
  std::atomic<bool> done{false};
  std::jthread drain([&] {
    try {
      while (rx_ep.receive_frame()) {
        if (done.load(std::memory_order_relaxed)) break;
      }
    } catch (const common::TransportError&) {
    }
  });
  for (auto _ : state) {
    dm::PreparedFrame prep = tx.prepare(7, blob.size());
    std::memcpy(prep.body().data(), blob.data(), blob.size());
    tx.send_prepared(prep.frame.view());
  }
  done = true;
  tx.close();
  rx_ep.close();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.SetLabel(kind == TransportKind::kInProcess ? "in-process" : "tcp");
}
BENCHMARK(BM_FrameThroughput)
    ->Args({static_cast<int>(TransportKind::kInProcess), 1 << 16})
    ->Args({static_cast<int>(TransportKind::kInProcess), 1 << 20})
    ->Args({static_cast<int>(TransportKind::kTcp), 1 << 16})
    ->Args({static_cast<int>(TransportKind::kTcp), 1 << 20});

void BM_MpLibraryEnvelope(benchmark::State& state) {
  const auto lib = static_cast<MpLibrary>(state.range(0));
  const auto size = static_cast<std::size_t>(state.range(1));
  auto pair = dm::make_inproc_pair();
  MessageEndpoint tx(lib, pair.sender);
  MessageEndpoint rx(lib, pair.receiver);
  const auto blob = make_blob(size);
  for (auto _ : state) {
    tx.send(7, blob);
    benchmark::DoNotOptimize(rx.receive());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.SetLabel(dm::to_string(lib));
}
BENCHMARK(BM_MpLibraryEnvelope)
    ->Args({static_cast<int>(MpLibrary::kP4), 1 << 16})
    ->Args({static_cast<int>(MpLibrary::kPvm), 1 << 16})
    ->Args({static_cast<int>(MpLibrary::kMpi), 1 << 16})
    ->Args({static_cast<int>(MpLibrary::kNcs), 1 << 16});

void BM_DataConversionMatrix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(5);
  const auto m = tasklib::Matrix::random(n, n, rng);
  for (auto _ : state) {
    const auto payload = tasklib::Payload::of_matrix(m);
    benchmark::DoNotOptimize(payload.as_matrix());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 8));
}
BENCHMARK(BM_DataConversionMatrix)->Arg(16)->Arg(64)->Arg(128);

void BM_DataConversionTracks(benchmark::State& state) {
  std::vector<tasklib::Track> tracks(
      static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    tracks[i].id = static_cast<std::uint32_t>(i);
    tracks[i].x = static_cast<double>(i);
  }
  for (auto _ : state) {
    const auto payload = tasklib::Payload::of_tracks(tracks);
    benchmark::DoNotOptimize(payload.as_tracks());
  }
}
BENCHMARK(BM_DataConversionTracks)->Arg(16)->Arg(256);

// ------------------------------------------------------ D13 json sweep

/// How many times the sweep runs every cell and lifecycle row.  One
/// 4 KiB TCP cell is a ~20 ms transfer that lands near one of two
/// rates from run to run, so a single run cannot show a 10% change.
constexpr std::size_t kSweepRuns = 15;

/// Median and quartiles of one figure over the sweep's runs.
struct Spread {
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
};

Spread spread_of(const std::vector<double>& samples) {
  return Spread{common::percentile(samples, 25.0),
                common::percentile(samples, 50.0),
                common::percentile(samples, 75.0)};
}

std::string json_spread(const Spread& s) {
  return "{\"p25\": " + std::to_string(s.p25) +
         ", \"median\": " + std::to_string(s.median) +
         ", \"p75\": " + std::to_string(s.p75) + "}";
}

struct CellResult {
  std::string transport;
  std::size_t size_bytes = 0;
  std::size_t frames = 0;
  double throughput_mb_s = 0.0;
  double allocs_per_frame = 0.0;
  double p99_latency_us = 0.0;
};

/// One sweep cell's runs, summarised.
struct CellSpread {
  std::string transport;
  std::size_t size_bytes = 0;
  std::size_t frames = 0;
  Spread throughput_mb_s;
  Spread allocs_per_frame;
  Spread p99_latency_us;
};

/// One producer -> consumer P4 pipeline cell over the pooled zero-copy
/// path.
CellResult run_cell(TransportKind kind, std::size_t size,
                    std::size_t frames) {
  using Clock = std::chrono::steady_clock;

  ChannelBroker broker(kind);
  const LinkKey key{common::AppId(1), common::TaskId(0), common::TaskId(1)};
  std::shared_ptr<dm::Channel> rx_ch;
  std::jthread opener([&] { rx_ch = broker.open_receive(key); });
  auto tx_ch = broker.open_send(key);
  opener.join();
  MessageEndpoint tx(MpLibrary::kP4, tx_ch);
  MessageEndpoint rx(MpLibrary::kP4, rx_ch);

  const auto blob = make_blob(size);
  const std::size_t kWarmup = 8;
  std::vector<Clock::time_point> stamps(kWarmup + frames);
  std::vector<double> latencies(frames);

  const auto send_one = [&] {
    dm::PreparedFrame prep = tx.prepare(7, blob.size());
    std::memcpy(prep.body().data(), blob.data(), blob.size());
    tx.send_prepared(prep.frame.view());
  };

  std::atomic<std::uint64_t> allocs_in_window{0};
  Clock::time_point t0;
  Clock::time_point t1;
  std::jthread consumer([&] {
    for (std::size_t i = 0; i < kWarmup + frames; ++i) {
      auto msg = rx.receive_frame();
      if (!msg) return;
      benchmark::DoNotOptimize(msg->data);
      if (i >= kWarmup) {
        latencies[i - kWarmup] = std::chrono::duration<double, std::micro>(
                                     Clock::now() - stamps[i])
                                     .count();
      }
    }
  });

  for (std::size_t i = 0; i < kWarmup + frames; ++i) {
    if (i == kWarmup) {
      t0 = Clock::now();
      allocs_in_window.store(g_alloc_count.load(std::memory_order_relaxed));
    }
    stamps[i] = Clock::now();
    send_one();
  }
  consumer.join();
  t1 = Clock::now();
  const std::uint64_t alloc_delta =
      g_alloc_count.load(std::memory_order_relaxed) -
      allocs_in_window.load();
  tx.close();
  rx.close();

  std::sort(latencies.begin(), latencies.end());
  CellResult cell;
  cell.transport = kind == TransportKind::kInProcess ? "inproc" : "tcp";
  cell.size_bytes = size;
  cell.frames = frames;
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  cell.throughput_mb_s =
      static_cast<double>(frames * size) / (1024.0 * 1024.0) / seconds;
  cell.allocs_per_frame =
      static_cast<double>(alloc_delta) / static_cast<double>(frames);
  cell.p99_latency_us =
      latencies[std::min(frames - 1, (frames * 99) / 100)];
  return cell;
}

struct LifecycleResult {
  std::string transport;
  std::size_t links = 0;
  double links_per_s = 0.0;
  double cpu_us_per_link = 0.0;
};

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// `links` full link lifecycles after a warm-up; CPU is the whole
/// process's (the event loop included).
LifecycleResult run_lifecycle(TransportKind kind, std::size_t links) {
  LinkLifecycleRig rig(kind);
  for (int i = 0; i < 64; ++i) rig.run_one();
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < links; ++i) rig.run_one();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  LifecycleResult r;
  r.transport = kind == TransportKind::kInProcess ? "inproc" : "tcp";
  r.links = links;
  r.links_per_s = static_cast<double>(links) / wall;
  r.cpu_us_per_link =
      (process_cpu_s() - cpu0) * 1e6 / static_cast<double>(links);
  return r;
}

std::string json_cell(const CellSpread& c) {
  std::string out = "    {";
  out += "\"transport\": \"" + c.transport + "\", ";
  out += "\"size_bytes\": " + std::to_string(c.size_bytes) + ", ";
  out += "\"frames\": " + std::to_string(c.frames) + ", ";
  out += "\"runs\": " + std::to_string(kSweepRuns) + ", ";
  out += "\"throughput_mb_s\": " + json_spread(c.throughput_mb_s) + ", ";
  out += "\"allocs_per_frame\": " + json_spread(c.allocs_per_frame) + ", ";
  out += "\"p99_latency_us\": " + json_spread(c.p99_latency_us);
  out += "}";
  return out;
}

int run_json_sweep(const std::string& out_path, bool quick) {
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{1 << 12, 1 << 20}
            : std::vector<std::size_t>{1 << 12, 1 << 16, 1 << 20, 16 << 20};
  const std::size_t target_bytes =
      quick ? (std::size_t{32} << 20) : (std::size_t{256} << 20);

  const std::vector<TransportKind> kinds = {TransportKind::kInProcess,
                                            TransportKind::kTcp};
  // The cells in report order.
  struct CellSpec {
    TransportKind kind;
    std::size_t size;
  };
  std::vector<CellSpec> specs;
  for (const TransportKind kind : kinds) {
    for (const std::size_t size : sizes) specs.push_back({kind, size});
  }

  // Runs are the outer loop, so drift over the sweep's lifetime spreads
  // over every cell instead of landing on the last ones.
  std::vector<std::vector<CellResult>> cell_runs(specs.size());
  std::vector<std::vector<LifecycleResult>> lifecycle_runs(kinds.size());
  for (std::size_t run = 0; run < kSweepRuns; ++run) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::size_t frames =
          std::clamp<std::size_t>(target_bytes / specs[i].size, 32, 4096);
      cell_runs[i].push_back(run_cell(specs[i].kind, specs[i].size, frames));
    }
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      lifecycle_runs[k].push_back(
          run_lifecycle(kinds[k], quick ? 2000 : 10000));
    }
  }

  std::vector<CellSpread> cells;
  for (const auto& runs : cell_runs) {
    std::vector<double> throughput, allocs, p99;
    for (const CellResult& r : runs) {
      throughput.push_back(r.throughput_mb_s);
      allocs.push_back(r.allocs_per_frame);
      p99.push_back(r.p99_latency_us);
    }
    const CellResult& first = runs.front();
    const CellSpread& c = cells.emplace_back(
        CellSpread{first.transport, first.size_bytes, first.frames,
                   spread_of(throughput), spread_of(allocs), spread_of(p99)});
    std::cout << c.transport << " " << c.size_bytes
              << "B: " << c.throughput_mb_s.median
              << " MB/s [" << c.throughput_mb_s.p25 << ", "
              << c.throughput_mb_s.p75 << "], "
              << c.allocs_per_frame.median << " allocs/frame, p99 "
              << c.p99_latency_us.median << " us ["
              << c.p99_latency_us.p25 << ", " << c.p99_latency_us.p75
              << "]\n";
  }

  // Regression guard: the zero-copy path must stay allocation-lean (a
  // change reintroducing per-hop copies shows up as this figure jumping).
  double max_allocs_per_frame = 0.0;
  for (const auto& c : cells) {
    max_allocs_per_frame =
        std::max(max_allocs_per_frame, c.allocs_per_frame.median);
  }

  std::vector<std::string> lifecycle_rows;
  for (const auto& runs : lifecycle_runs) {
    std::vector<double> rate, cpu;
    for (const LifecycleResult& r : runs) {
      rate.push_back(r.links_per_s);
      cpu.push_back(r.cpu_us_per_link);
    }
    const Spread links_per_s = spread_of(rate);
    const Spread cpu_us_per_link = spread_of(cpu);
    const LifecycleResult& l = runs.front();
    std::cout << l.transport << " link lifecycle: " << links_per_s.median
              << " links/s [" << links_per_s.p25 << ", " << links_per_s.p75
              << "], " << cpu_us_per_link.median << " us CPU per link ["
              << cpu_us_per_link.p25 << ", " << cpu_us_per_link.p75
              << "]\n";
    lifecycle_rows.push_back(
        "    {\"transport\": \"" + l.transport +
        "\", \"links\": " + std::to_string(l.links) +
        ", \"runs\": " + std::to_string(kSweepRuns) +
        ", \"links_per_s\": " + json_spread(links_per_s) +
        ", \"cpu_us_per_link\": " + json_spread(cpu_us_per_link) + "}");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"datamgr\",\n";
  out << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << json_cell(cells[i]) << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"link_lifecycle\": [\n";
  for (std::size_t i = 0; i < lifecycle_rows.size(); ++i) {
    out << lifecycle_rows[i]
        << (i + 1 < lifecycle_rows.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"summary\": {\n";
  out << "    \"max_allocs_per_frame\": " << max_allocs_per_frame << "\n";
  out << "  }\n}\n";
  std::cout << "wrote " << out_path << " (medians of " << kSweepRuns
            << " runs; at most " << max_allocs_per_frame
            << " allocations per frame)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool quick = false;
  std::string out_path = "BENCH_datamgr.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    }
  }
  if (json) return run_json_sweep(out_path, quick);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
