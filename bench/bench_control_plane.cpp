// bench_control_plane: the E20 question -- what does moving the
// control plane out of the process cost per message?
//
// Times one control-plane interaction end-to-end through two paths:
//
//   * loopback   -- one message through the Control Manager's own
//                   path: wire::encode, synchronous decode, dispatch
//                   and count (D14), as every in-process deployment
//                   runs it.
//   * daemon_rpc -- a full DaemonClient::tick round trip to a real
//                   vdce_site_daemon process over loopback TCP.
//
// plus Host Selection latency (the paper's inter-site AFG multicast
// unit) in-process vs. over the daemon RPC socket.  Rows are CSV;
// --json additionally writes a BENCH_control_plane.json summary.
//
// --liveness switches to the E23 question instead -- what does quorum
// liveness (D17) buy over a lone heartbeat timer?  Two variants run
// the same chaos script (a coordinator<->site-1 partition, then a
// SIGKILL of site 0's daemon): `timer` (gossip off, quorum 1: the
// watchdog's own missed-heartbeat vote is a verdict) vs `quorum`
// (gossip on, quorum 2: death needs an independent witness).  Reported
// per variant: false-positive deaths of the partitioned-but-healthy
// site, spurious restarts, refutations, and the SIGKILL detection
// latency.  --json then writes BENCH_liveness.json.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/ids.hpp"
#include "daemon/client.hpp"
#include "netsim/chaos.hpp"
#include "netsim/testbed.hpp"
#include "runtime/liveness.hpp"
#include "runtime/site_stack.hpp"
#include "runtime/watchdog.hpp"
#include "scheduler/directory.hpp"
#include "sim/workloads.hpp"

namespace {

using vdce::common::SiteId;

struct Latency {
  double mean_us = 0.0;
  double median_us = 0.0;
  double p99_us = 0.0;
};

Latency summarize(std::vector<double> samples_us) {
  Latency out;
  if (samples_us.empty()) return out;
  std::sort(samples_us.begin(), samples_us.end());
  double sum = 0.0;
  for (const double s : samples_us) sum += s;
  out.mean_us = sum / static_cast<double>(samples_us.size());
  out.median_us = samples_us[samples_us.size() / 2];
  const std::size_t p99 = std::min(
      samples_us.size() - 1,
      static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(samples_us.size())) - 1));
  out.p99_us = samples_us[p99];
  return out;
}

/// Runs `op` `iters` times and returns per-call latency in µs.
template <typename Op>
Latency time_loop(std::size_t iters, Op&& op) {
  std::vector<double> us;
  us.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    op(i);
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return summarize(std::move(us));
}

void print_row(const std::string& op, const std::string& path,
               std::size_t iters, const Latency& l) {
  std::cout << op << "," << path << "," << iters << "," << l.mean_us << ","
            << l.median_us << "," << l.p99_us << "\n";
}

std::string json_entry(const std::string& op, const std::string& path,
                       const Latency& l) {
  return "    {\"op\": \"" + op + "\", \"path\": \"" + path +
         "\", \"mean_us\": " + std::to_string(l.mean_us) +
         ", \"median_us\": " + std::to_string(l.median_us) +
         ", \"p99_us\": " + std::to_string(l.p99_us) + "}";
}

// ------------------------------------------------------ E23: liveness

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One E23 variant outcome.
struct LivenessOutcome {
  std::string name;
  /// Down declarations against the partitioned-but-healthy site
  /// (anything > 0 is a false positive -- no process ever died).
  int false_positive_deaths = 0;
  /// Restarts churned by those false positives.
  std::uint64_t spurious_restarts = 0;
  bool partitioned_site_recovered = false;
  std::uint64_t suspects = 0;
  std::uint64_t refutations = 0;
  std::uint64_t false_alarm_recoveries = 0;
  std::uint64_t deaths_quorum = 0;
  std::uint64_t deaths_timeout = 0;
  /// Kill -> on_site_down latency for the real SIGKILL (ms).
  double sigkill_detect_ms = -1.0;
};

LivenessOutcome run_liveness_variant(const std::string& name, bool gossip,
                                     int quorum) {
  LivenessOutcome out;
  out.name = name;

  vdce::rt::WatchdogConfig config;
  config.daemon_path = VDCE_SITE_DAEMON_PATH;
  config.seed = 13;
  config.heartbeat_period_s = 0.02;
  config.heartbeat_timeout_s = 0.25;
  config.max_restarts = 5;
  config.restart_backoff_s = 0.02;
  config.gossip = gossip;
  config.gossip_period_s = 0.02;
  config.probe_timeout_s = 0.2;
  // Every death verdict must travel through the liveness directory so
  // the two variants differ ONLY in their witness pools.
  config.trust_process_exit = false;
  config.liveness.quorum = quorum;
  config.liveness.suspicion_timeout_s = 0.6;

  // The chaos script: partition the coordinator from site 1 for 1.2s
  // (site 1 stays perfectly healthy), heal, then SIGKILL site 0.
  vdce::netsim::ChaosSchedule schedule;
  vdce::netsim::ChaosEvent ev;
  ev.kind = vdce::netsim::ChaosEventKind::kPartition;
  ev.start = 0.4;
  ev.length = 1.2;
  ev.site = vdce::rt::LivenessDirectory::watchdog_witness();
  ev.other_site = SiteId(1);
  schedule.add(ev);
  const double epoch = steady_s();
  config.partition_spec = schedule.partition_spec(epoch);

  vdce::rt::Watchdog watchdog(config);
  std::atomic<int> site0_downs{0};
  std::atomic<int> site1_downs{0};
  watchdog.set_on_site_down([&](SiteId site) {
    (site.value() == 0 ? site0_downs : site1_downs).fetch_add(1);
  });
  watchdog.spawn(SiteId(0));
  watchdog.spawn(SiteId(1));
  const double up_deadline = steady_s() + 15.0;
  while (steady_s() < up_deadline && !(watchdog.status(SiteId(0)).up &&
                                       watchdog.status(SiteId(1)).up)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Ride out the partition plus a recovery margin.
  const double heal_end = epoch + 0.4 + 1.2 + 0.8;
  while (steady_s() < heal_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  out.false_positive_deaths = site1_downs.load();
  out.spurious_restarts = watchdog.status(SiteId(1)).restarts;
  out.partitioned_site_recovered =
      watchdog.status(SiteId(1)).up &&
      watchdog.site_liveness(SiteId(1)) == vdce::rt::SiteLiveness::kAlive;

  // The real death: SIGKILL site 0 and time the verdict.
  const double killed_at = steady_s();
  watchdog.kill_daemon(SiteId(0), SIGKILL);
  const double kill_deadline = killed_at + 10.0;
  while (steady_s() < kill_deadline && site0_downs.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (site0_downs.load() > 0) {
    out.sigkill_detect_ms = (steady_s() - killed_at) * 1e3;
  }

  const auto stats = watchdog.liveness().stats();
  out.suspects = stats.suspects;
  out.refutations = stats.refutations;
  out.false_alarm_recoveries = stats.false_alarm_recoveries;
  out.deaths_quorum = stats.deaths_quorum;
  out.deaths_timeout = stats.deaths_timeout;
  return out;
}

void print_liveness_row(const LivenessOutcome& o) {
  std::cout << o.name << "," << o.false_positive_deaths << ","
            << o.spurious_restarts << ","
            << (o.partitioned_site_recovered ? 1 : 0) << "," << o.suspects
            << "," << o.refutations << "," << o.false_alarm_recoveries << ","
            << o.deaths_quorum << "," << o.deaths_timeout << ","
            << o.sigkill_detect_ms << "\n";
}

std::string liveness_json_entry(const LivenessOutcome& o) {
  return "    {\"variant\": \"" + o.name +
         "\", \"false_positive_deaths\": " +
         std::to_string(o.false_positive_deaths) +
         ", \"spurious_restarts\": " + std::to_string(o.spurious_restarts) +
         ", \"partitioned_site_recovered\": " +
         (o.partitioned_site_recovered ? "true" : "false") +
         ", \"suspects\": " + std::to_string(o.suspects) +
         ", \"refutations\": " + std::to_string(o.refutations) +
         ", \"false_alarm_recoveries\": " +
         std::to_string(o.false_alarm_recoveries) +
         ", \"deaths_quorum\": " + std::to_string(o.deaths_quorum) +
         ", \"deaths_timeout\": " + std::to_string(o.deaths_timeout) +
         ", \"sigkill_detect_ms\": " + std::to_string(o.sigkill_detect_ms) +
         "}";
}

int run_liveness_bench(bool json, const std::string& out_path) {
  std::cout << "variant,false_positive_deaths,spurious_restarts,"
               "partitioned_site_recovered,suspects,refutations,"
               "false_alarm_recoveries,deaths_quorum,deaths_timeout,"
               "sigkill_detect_ms\n";
  const auto timer = run_liveness_variant("timer", /*gossip=*/false,
                                          /*quorum=*/1);
  print_liveness_row(timer);
  const auto quorum = run_liveness_variant("quorum", /*gossip=*/true,
                                           /*quorum=*/2);
  print_liveness_row(quorum);

  if (json) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << "{\n  \"experiment\": \"E23\",\n  \"rows\": [\n"
        << liveness_json_entry(timer) << ",\n"
        << liveness_json_entry(quorum) << "\n  ],\n"
        << "  \"quorum_false_positives\": " << quorum.false_positive_deaths
        << ",\n  \"timer_false_positives\": " << timer.false_positive_deaths
        << "\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  // The acceptance bar E23 exists to demonstrate: the quorum variant
  // must produce ZERO false positives yet still detect the real death.
  if (quorum.false_positive_deaths != 0 || quorum.sigkill_detect_ms < 0) {
    std::cerr << "E23 acceptance violated\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool quick = false;
  bool liveness = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--liveness") {
      liveness = true;
    }
  }
  if (out_path.empty()) {
    out_path = liveness ? "BENCH_liveness.json" : "BENCH_control_plane.json";
  }
  if (liveness) return run_liveness_bench(json, out_path);
  const std::size_t msg_iters = quick ? 2000 : 20000;
  const std::size_t rpc_iters = quick ? 500 : 5000;
  const std::size_t sel_iters = quick ? 20 : 100;
  constexpr std::uint64_t kSeed = 13;

  // Site 0's stack, built as the daemon builds its own, so both ends
  // agree by construction.
  vdce::netsim::VirtualTestbed testbed(
      vdce::netsim::make_campus_testbed(kSeed));
  const vdce::rt::SiteStack local =
      vdce::rt::build_site_stack(testbed, SiteId(0));
  vdce::sched::RepositoryDirectory directory;
  directory.add_site(SiteId(0), local.repository.get(),
                     local.forecaster.get());

  // Path 1: loopback -- a load-threshold reschedule request through the
  // Control Manager's own path (encode, decode, dispatch, count).  No
  // host is marked down, so every iteration does the same work.
  vdce::rt::RescheduleRequest request;
  request.host = vdce::common::HostId(3);
  request.when = 1.0;
  request.observed_load = 0.42;
  const Latency loopback_lat = time_loop(msg_iters, [&](std::size_t) {
    local.control->report_task_failure(request);
  });

  // Path 2: the real thing -- a tick RPC to a vdce_site_daemon
  // process (encode, TCP, daemon decode + dispatch, Ack back).
  vdce::rt::WatchdogConfig config;
  config.daemon_path = VDCE_SITE_DAEMON_PATH;
  config.seed = kSeed;
  config.heartbeat_period_s = 0.05;
  config.heartbeat_timeout_s = 5.0;
  vdce::rt::Watchdog watchdog(config);
  watchdog.spawn(SiteId(0));
  vdce::daemon::DaemonClient client(watchdog.rpc_port(SiteId(0)));
  const Latency rpc_lat = time_loop(rpc_iters, [&](std::size_t i) {
    client.tick(1.0 + 1e-7 * static_cast<double>(i));
  });

  // Host Selection: the scheduler-visible unit of control-plane work,
  // local call vs. remote RPC (ships the AFG as text both ways).
  const auto graph = vdce::sim::make_linear_solver_graph();
  const Latency local_sel = time_loop(sel_iters, [&](std::size_t) {
    (void)directory.host_selection(SiteId(0), graph);
  });
  const Latency remote_sel = time_loop(sel_iters, [&](std::size_t) {
    (void)client.host_selection(graph, 1);
  });

  std::cout << "op,path,iters,mean_us,median_us,p99_us\n";
  print_row("control_message", "loopback", msg_iters, loopback_lat);
  print_row("control_message", "daemon_rpc", rpc_iters, rpc_lat);
  print_row("host_selection", "in_process", sel_iters, local_sel);
  print_row("host_selection", "daemon_rpc", sel_iters, remote_sel);

  if (json) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << "{\n  \"experiment\": \"E20\",\n  \"rows\": [\n"
        << json_entry("control_message", "loopback", loopback_lat) << ",\n"
        << json_entry("control_message", "daemon_rpc", rpc_lat) << ",\n"
        << json_entry("host_selection", "in_process", local_sel) << ",\n"
        << json_entry("host_selection", "daemon_rpc", remote_sel) << "\n"
        << "  ],\n  \"rpc_over_loopback_cost\": "
        << (rpc_lat.median_us / std::max(loopback_lat.median_us, 1e-9))
        << "\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
