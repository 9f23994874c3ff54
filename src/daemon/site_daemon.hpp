// The site daemon: one site's control plane in its own OS process
// (designs D14 + D17).
//
// "At each site, the VDCE Server runs the server software, called site
//  manager" (Section 2) -- and a server is a PROCESS, not an object in
// the coordinator's address space.  `vdce_site_daemon` hosts the
// per-site stack rt::build_site_stack builds for every in-process
// deployment too (SiteRepository + LoadForecaster + SiteManager +
// ControlManager with its Group Managers and Monitors) and speaks the
// wire.hpp protocol:
//
//   * an RPC listener on a kernel-assigned port serves each coordinator
//     connection in a session of its own (tick / host-selection /
//     reselection / task-failure / shutdown), so a restarted
//     coordinator -- or a coordinator reattaching to a restarted
//     daemon -- is served at once, even while an older connection is
//     still open; Host Selection and reselection are answered by a
//     one-site sched::RepositoryDirectory over the stack, the same code
//     an in-process run calls, and the stack's own locks keep
//     overlapping sessions safe;
//   * a heartbeat connection beats into the watchdog, announcing the
//     RPC and gossip ports; losing that connection terminates the
//     daemon (an orphan without a supervisor must not linger) and
//     closes every open coordinator session;
//   * in gossip mode (D17) a second listener answers peer probes
//     (gossip ping), indirect probe requests (ping-req: probe a third
//     site over THIS daemon's network path) and roster pushes, one
//     connection each, while a prober thread pings every rostered peer
//     each round, piggybacks a peer-health digest on the heartbeat
//     channel, and immediately refutes the suspicion of any peer it
//     still hears.
//
// Both listeners are dm::TcpServers: a session that ends leaves nothing
// behind, so the daemon's descriptors, threads and memory maps stay
// flat however long it gossips.
//
// Chaos partitions reach daemon mode through a partition spec
// (ChaosSchedule::partition_spec with absolute steady-clock windows):
// while an edge is partitioned the daemon suppresses heartbeats to a
// partitioned coordinator and drops pings/ping-reqs from partitioned
// origins -- the network is simulated, the processes are real.
//
// Determinism: the daemon rebuilds its testbed from (preset seed)
// alone and its stack with rt::build_site_stack, as in-process runs
// do, and the coordinator drives Control Manager ticks explicitly over
// RPC, so a daemon-mode deployment reproduces the in-process
// repository state tick for tick; the gossip layer never touches the
// scheduling stack.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datamgr/tcp.hpp"
#include "netsim/chaos.hpp"
#include "netsim/testbed.hpp"
#include "runtime/liveness.hpp"
#include "runtime/site_stack.hpp"
#include "runtime/wire.hpp"
#include "scheduler/directory.hpp"

namespace vdce::daemon {

struct SiteDaemonConfig {
  common::SiteId site;
  /// Campus-testbed seed; must match the coordinator's.
  std::uint64_t seed = 13;
  /// Watchdog heartbeat port; 0 = unsupervised (tests drive the RPC
  /// port directly).
  std::uint16_t heartbeat_port = 0;
  double heartbeat_period_s = 0.05;
  std::uint32_t incarnation = 1;
  /// D17: serve the gossip listener and run the peer prober.
  bool gossip = false;
  /// Peer probe round period.
  double gossip_period_s = 0.05;
  /// Chaos partitions (ChaosSchedule::partition_spec, absolute
  /// steady-clock windows); empty = none.
  std::string partition_spec;
};

/// One site's out-of-process control plane.
class SiteDaemon {
 public:
  /// Rebuilds the site stack and binds the RPC listener.
  explicit SiteDaemon(SiteDaemonConfig config);
  ~SiteDaemon();

  SiteDaemon(const SiteDaemon&) = delete;
  SiteDaemon& operator=(const SiteDaemon&) = delete;

  [[nodiscard]] std::uint16_t rpc_port() const { return rpc_.port(); }
  /// The gossip listener port (0 when gossip is off).
  [[nodiscard]] std::uint16_t gossip_port() const {
    return config_.gossip ? gossip_.port() : 0;
  }

  /// Serves coordinator connections until a shutdown RPC arrives (or
  /// the heartbeat link dies).  Returns the process exit code.
  int serve();

  /// Stops serving: closes both listeners and every open session, and
  /// makes serve() return.  Safe from any thread.
  void request_stop();

 private:
  /// A rostered peer and what we last heard from it.
  struct Peer {
    common::SiteId site;
    std::uint16_t gossip_port = 0;
    std::uint32_t incarnation = 0;
    bool suspected = false;
  };
  struct Heard {
    std::uint32_t incarnation = 0;
    double when_s = 0.0;
    bool reachable = false;
  };

  /// Serves one coordinator connection; a shutdown RPC stops the
  /// daemon.
  void session(dm::TcpChannel& channel);
  void heartbeat_loop();
  /// Serves one inbound gossip connection (pings, ping-reqs, rosters).
  void gossip_session(dm::TcpChannel& channel);
  /// One probe round over the roster, then the digest piggyback.
  void prober_loop();
  /// Probes `port` with a gossip ping; fills `incarnation` on success.
  [[nodiscard]] bool probe_peer(std::uint16_t port,
                                std::uint32_t& incarnation);
  /// Sends a frame on the heartbeat channel (prober and heartbeat
  /// threads share it); drops silently when the channel is gone.
  void send_to_watchdog(const std::vector<std::byte>& frame);
  /// True while a chaos partition separates this site from `other`.
  [[nodiscard]] bool partitioned_from(common::SiteId other) const;
  [[nodiscard]] static double now_s();

  SiteDaemonConfig config_;
  netsim::VirtualTestbed testbed_;
  rt::SiteStack stack_;
  /// This site's Host Selection over `stack_`.
  sched::RepositoryDirectory directory_;
  netsim::ChaosSchedule partitions_;
  std::atomic<bool> stop_{false};

  std::mutex beat_mu_;
  std::shared_ptr<dm::TcpChannel> beat_channel_;

  std::mutex gossip_mu_;
  std::vector<Peer> peers_;
  std::map<common::SiteId, Heard> last_heard_;

  dm::TcpServer rpc_;
  dm::TcpServer gossip_;
  std::thread heartbeat_;
  std::thread prober_;
};

}  // namespace vdce::daemon
