// D15: the admission front door at scale.
//
// Two modes:
//   * default: google-benchmark micro-benchmarks of the grant pick --
//     the sharded stride queue against a faithful replica of the
//     pre-D15 linear scan -- across queue depths;
//   * --json [path] [--quick]: the E21 sweep.  (1) grant-pick cost at
//     1k..100k queued submissions, sharded vs linear, p50/p99 ns and
//     grants/sec; (2) end-to-end submit() admission latency against a
//     1k..100k backlog on a live (paused) service, p50/p99 us plus
//     batched-burst throughput; (3) fairness: Jain's index over
//     per-user grants for 64 equal users and the worst weighted-share
//     error for 1:2:4 weights.  Written to BENCH_admission.json by
//     default; cited by EXPERIMENTS.md E21 and run in quick mode by the
//     CI test job.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/harness.hpp"
#include "runtime/fair_share.hpp"
#include "runtime/site_stack.hpp"
#include "runtime/submission.hpp"

namespace {

using namespace vdce;

[[nodiscard]] double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// A faithful replica of the pre-D15 grant pick: one flat ready vector,
// one flat pass map, O(n) scan per grant (and the seed's mid-vector
// erase).  Kept here so the sweep can show the curve the sharded queue
// replaced without resurrecting the old service.
struct LinearRef {
  struct Entry {
    std::string user;
    std::uint64_t seq = 0;
    double weight = 1.0;
  };
  std::vector<Entry> ready;
  std::unordered_map<std::string, double> shares;
  double grant_pass = 0.0;

  void push(std::string user, std::uint64_t seq, double weight) {
    if (!shares.contains(user)) shares[user] = grant_pass;
    ready.push_back(Entry{std::move(user), seq, weight});
  }

  Entry pop() {
    std::size_t best = 0;
    double best_pass = std::numeric_limits<double>::infinity();
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const double pass = shares.at(ready[i].user);
      if (pass < best_pass ||
          (pass == best_pass && ready[i].seq < best_seq)) {
        best = i;
        best_pass = pass;
        best_seq = ready[i].seq;
      }
    }
    Entry entry = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
    double& pass = shares.at(entry.user);
    grant_pass = pass;
    pass += 1.0 / std::max(entry.weight, 1e-9);
    return entry;
  }
};

[[nodiscard]] std::string user_of(std::size_t i, std::size_t users) {
  return "user" + std::to_string(i % users);
}

[[nodiscard]] double weight_of(std::size_t i) {
  return 1.0 + static_cast<double>(i % 4);
}

void fill_sharded(rt::FairShareQueue& queue, std::size_t depth,
                  std::size_t users) {
  for (std::size_t i = 0; i < depth; ++i) {
    rt::FairShareEntry entry;
    entry.app = common::AppId(static_cast<std::uint32_t>(i + 1));
    entry.seq = i + 1;
    entry.weight = weight_of(i);
    queue.push(user_of(i, users), entry);
  }
}

void fill_linear(LinearRef& queue, std::size_t depth, std::size_t users) {
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(user_of(i, users), i + 1, weight_of(i));
  }
}

struct Quantiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
};

[[nodiscard]] Quantiles quantiles(std::vector<double> samples) {
  Quantiles q;
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  q.p50 = samples[samples.size() / 2];
  q.p99 = samples[std::min(samples.size() - 1,
                           samples.size() * 99 / 100)];
  double sum = 0.0;
  for (const double s : samples) sum += s;
  q.mean = sum / static_cast<double>(samples.size());
  return q;
}

// ------------------------------------------------------ micro benches

void BM_ShardedGrantPick(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const std::size_t users = std::max<std::size_t>(depth / 16, 4);
  rt::FairShareQueue queue;
  fill_sharded(queue, depth, users);
  std::uint64_t seq = depth + 1;
  for (auto _ : state) {
    auto entry = queue.pop();
    benchmark::DoNotOptimize(entry);
    // Refill a rotating user so the depth stays constant.
    entry->seq = seq;
    queue.push(user_of(seq, users), *entry);
    ++seq;
  }
}
BENCHMARK(BM_ShardedGrantPick)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LinearGrantPick(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  LinearRef queue;
  fill_linear(queue, depth, std::max<std::size_t>(depth / 16, 4));
  std::uint64_t seq = depth + 1;
  for (auto _ : state) {
    auto entry = queue.pop();
    benchmark::DoNotOptimize(entry);
    queue.push(entry.user, seq++, entry.weight);
  }
}
BENCHMARK(BM_LinearGrantPick)->Arg(1000)->Arg(10000);

// ------------------------------------------------------ the E21 sweep

struct GrantPickCell {
  std::size_t depth = 0;
  std::size_t users = 0;
  Quantiles sharded_ns;
  Quantiles linear_ns;
  double sharded_grants_per_s = 0.0;
  double speedup_p99 = 0.0;
};

GrantPickCell run_grant_pick_cell(std::size_t depth, std::size_t picks) {
  GrantPickCell cell;
  cell.depth = depth;
  cell.users = std::max<std::size_t>(depth / 16, 4);

  rt::FairShareQueue sharded;
  fill_sharded(sharded, depth, cell.users);
  std::vector<double> sharded_ns;
  sharded_ns.reserve(picks);
  std::uint64_t seq = depth + 1;
  for (std::size_t i = 0; i < picks; ++i) {
    const double t0 = now_s();
    auto entry = sharded.pop();
    const double t1 = now_s();
    sharded_ns.push_back((t1 - t0) * 1e9);
    entry->seq = seq++;
    sharded.push(user_of(i, cell.users), *entry);
  }
  cell.sharded_ns = quantiles(sharded_ns);
  cell.sharded_grants_per_s =
      cell.sharded_ns.mean > 0.0 ? 1e9 / cell.sharded_ns.mean : 0.0;

  LinearRef linear;
  fill_linear(linear, depth, cell.users);
  std::vector<double> linear_ns;
  linear_ns.reserve(picks);
  for (std::size_t i = 0; i < picks; ++i) {
    const double t0 = now_s();
    auto entry = linear.pop();
    const double t1 = now_s();
    linear_ns.push_back((t1 - t0) * 1e9);
    linear.push(entry.user, seq++, entry.weight);
  }
  cell.linear_ns = quantiles(linear_ns);
  cell.speedup_p99 =
      cell.linear_ns.p99 / std::max(cell.sharded_ns.p99, 1e-9);
  return cell;
}

struct ServiceCell {
  std::size_t backlog = 0;
  double submit_p50_us = 0.0;
  double submit_p99_us = 0.0;
  double batch_submissions_per_s = 0.0;
};

[[nodiscard]] afg::FlowGraph tiny_graph(const std::string& name) {
  afg::FlowGraph g(name);
  const auto src = g.add_task("synth_source", "src");
  const auto sink = g.add_task("synth_sink", "sink");
  g.add_link(src, sink, 0.01);
  return g;
}

[[nodiscard]] rt::SubmissionRequest make_request(std::size_t i,
                                                 std::size_t users) {
  rt::SubmissionRequest request;
  request.graph = tiny_graph("bench" + std::to_string(i));
  request.qos.deadline_s = 1e18;
  request.user = user_of(i, users);
  request.weight = weight_of(i);
  request.seed = 1 + i;
  return request;
}

ServiceCell run_service_cell(rt::LocalVdce& v, std::size_t backlog,
                             std::size_t timed_submits) {
  ServiceCell cell;
  cell.backlog = backlog;
  constexpr std::size_t kUsers = 64;

  rt::AppSubmissionConfig config;
  config.slots = 2;
  config.start_paused = true;
  config.max_queue = backlog + timed_submits + 1;
  rt::AppSubmissionService service(common::SiteId(0), v.repository_directory,
                                   tasklib::builtin_registry(), config);

  // Build the backlog with batched bursts (also the burst-throughput
  // figure: scheduling + batched QoS + queue push, amortised).
  constexpr std::size_t kBurst = 2000;
  const double fill0 = now_s();
  std::size_t filled = 0;
  while (filled < backlog) {
    const std::size_t count = std::min(kBurst, backlog - filled);
    std::vector<rt::SubmissionRequest> burst;
    burst.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      burst.push_back(make_request(filled + i, kUsers));
    }
    (void)service.submit_batch(std::move(burst));
    filled += count;
  }
  const double fill_s = now_s() - fill0;
  cell.batch_submissions_per_s =
      fill_s > 0.0 ? static_cast<double>(backlog) / fill_s : 0.0;

  // The headline figure: individual submit() latency against the full
  // backlog -- schedule, residual QoS, ETA and queue push.
  std::vector<double> us;
  us.reserve(timed_submits);
  for (std::size_t i = 0; i < timed_submits; ++i) {
    auto request = make_request(backlog + i, kUsers);
    const double t0 = now_s();
    (void)service.submit(std::move(request));
    const double t1 = now_s();
    us.push_back((t1 - t0) * 1e6);
  }
  const Quantiles q = quantiles(us);
  cell.submit_p50_us = q.p50;
  cell.submit_p99_us = q.p99;

  // Tier-3 shedding doubles as the cleanup path: drop the whole
  // backlog instead of executing it.
  (void)service.shed_queued(std::numeric_limits<int>::max());
  return cell;
}

struct FairnessResult {
  std::size_t users = 0;
  std::size_t grants = 0;
  double jain = 0.0;
  double worst_weighted_error_pct = 0.0;
};

FairnessResult run_fairness() {
  FairnessResult result;
  result.users = 64;
  result.grants = 10000;

  // Equal weights: Jain's index over per-user grant counts.
  {
    rt::FairShareQueue queue;
    std::uint64_t seq = 1;
    for (std::size_t e = 0; e < 200; ++e) {
      for (std::size_t u = 0; u < result.users; ++u) {
        rt::FairShareEntry entry;
        entry.app = common::AppId(static_cast<std::uint32_t>(seq));
        entry.seq = seq++;
        queue.push("user" + std::to_string(u), entry);
      }
    }
    std::vector<double> grants(result.users, 0.0);
    for (std::size_t g = 0; g < result.grants; ++g) {
      const auto entry = queue.pop();
      grants[(entry->seq - 1) % result.users] += 1.0;
    }
    double sum = 0.0, sum_sq = 0.0;
    for (const double g : grants) {
      sum += g;
      sum_sq += g * g;
    }
    result.jain =
        (sum * sum) / (static_cast<double>(result.users) * sum_sq);
  }

  // Weighted 1:2:4: worst per-user deviation from the weighted share.
  {
    const std::vector<double> weights = {1.0, 2.0, 4.0};
    rt::FairShareQueue queue;
    std::uint64_t seq = 1;
    for (std::size_t e = 0; e < 500; ++e) {
      for (std::size_t u = 0; u < weights.size(); ++u) {
        rt::FairShareEntry entry;
        entry.app = common::AppId(static_cast<std::uint32_t>(seq));
        entry.seq = seq++;
        entry.weight = weights[u];
        queue.push("w" + std::to_string(u), entry);
      }
    }
    std::vector<double> grants(weights.size(), 0.0);
    constexpr std::size_t kGrants = 700;
    for (std::size_t g = 0; g < kGrants; ++g) {
      const auto entry = queue.pop();
      grants[(entry->seq - 1) % weights.size()] += 1.0;
    }
    for (std::size_t u = 0; u < weights.size(); ++u) {
      const double expected = kGrants * weights[u] / 7.0;
      const double err =
          100.0 * std::abs(grants[u] - expected) / expected;
      result.worst_weighted_error_pct =
          std::max(result.worst_weighted_error_pct, err);
    }
  }
  return result;
}

int run_json_sweep(const std::string& out_path, bool quick) {
  const std::vector<std::size_t> depths =
      quick ? std::vector<std::size_t>{1000, 10000}
            : std::vector<std::size_t>{1000, 10000, 100000};
  const std::size_t picks = quick ? 300 : 1000;
  const std::size_t timed_submits = quick ? 100 : 200;

  bench::banner("E21", "admission front door at 1k..100k backlog");

  bench::header(
      "depth,users,sharded_p50_ns,sharded_p99_ns,linear_p50_ns,"
      "linear_p99_ns,grants_per_s,speedup_p99");
  std::vector<GrantPickCell> grant_cells;
  for (const std::size_t depth : depths) {
    grant_cells.push_back(run_grant_pick_cell(depth, picks));
    const auto& c = grant_cells.back();
    std::cout << c.depth << "," << c.users << "," << c.sharded_ns.p50
              << "," << c.sharded_ns.p99 << "," << c.linear_ns.p50 << ","
              << c.linear_ns.p99 << "," << c.sharded_grants_per_s << ","
              << c.speedup_p99 << "\n";
  }

  rt::LocalVdce v(netsim::make_campus_testbed(13));
  bench::header("backlog,submit_p50_us,submit_p99_us,batch_submits_per_s");
  std::vector<ServiceCell> service_cells;
  for (const std::size_t depth : depths) {
    service_cells.push_back(run_service_cell(v, depth, timed_submits));
    const auto& c = service_cells.back();
    std::cout << c.backlog << "," << c.submit_p50_us << ","
              << c.submit_p99_us << "," << c.batch_submissions_per_s
              << "\n";
  }

  const FairnessResult fairness = run_fairness();
  std::cout << "fairness: jain " << fairness.jain << " over "
            << fairness.users << " users, worst weighted error "
            << fairness.worst_weighted_error_pct << "%\n";

  // Headline ratios: the sharded p99 must stay roughly flat across two
  // orders of magnitude of backlog while the linear reference grows
  // with it.
  const auto& first = grant_cells.front();
  const auto& last = grant_cells.back();
  const double sharded_flatness =
      last.sharded_ns.p99 / std::max(first.sharded_ns.p99, 1e-9);
  const double linear_growth =
      last.linear_ns.p99 / std::max(first.linear_ns.p99, 1e-9);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"admission\",\n";
  out << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  out << "  \"grant_pick\": [\n";
  for (std::size_t i = 0; i < grant_cells.size(); ++i) {
    const auto& c = grant_cells[i];
    out << "    {\"depth\": " << c.depth << ", \"users\": " << c.users
        << ", \"sharded_p50_ns\": " << c.sharded_ns.p50
        << ", \"sharded_p99_ns\": " << c.sharded_ns.p99
        << ", \"linear_p50_ns\": " << c.linear_ns.p50
        << ", \"linear_p99_ns\": " << c.linear_ns.p99
        << ", \"grants_per_s\": " << c.sharded_grants_per_s
        << ", \"speedup_p99\": " << c.speedup_p99 << "}"
        << (i + 1 < grant_cells.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"service_admission\": [\n";
  for (std::size_t i = 0; i < service_cells.size(); ++i) {
    const auto& c = service_cells[i];
    out << "    {\"backlog\": " << c.backlog
        << ", \"submit_p50_us\": " << c.submit_p50_us
        << ", \"submit_p99_us\": " << c.submit_p99_us
        << ", \"batch_submissions_per_s\": " << c.batch_submissions_per_s
        << "}" << (i + 1 < service_cells.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"fairness\": {\"users\": " << fairness.users
      << ", \"grants\": " << fairness.grants
      << ", \"jain\": " << fairness.jain
      << ", \"worst_weighted_error_pct\": "
      << fairness.worst_weighted_error_pct << "},\n";
  out << "  \"summary\": {\n";
  out << "    \"max_depth\": " << last.depth << ",\n";
  out << "    \"sharded_p99_flatness\": " << sharded_flatness << ",\n";
  out << "    \"linear_p99_growth\": " << linear_growth << ",\n";
  out << "    \"speedup_p99_at_max_depth\": " << last.speedup_p99 << "\n";
  out << "  }\n}\n";
  std::cout << "wrote " << out_path << " (sharded p99 "
            << first.sharded_ns.p99 << "ns -> " << last.sharded_ns.p99
            << "ns across " << first.depth << ".." << last.depth
            << "; linear grew " << linear_growth << "x)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool quick = false;
  std::string out_path = "BENCH_admission.json";
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
