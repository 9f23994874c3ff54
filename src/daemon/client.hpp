// Coordinator-side clients of the site daemon RPC protocol (D14).
//
// DaemonClient wraps one TCP connection to a vdce_site_daemon with a
// strict request/reply discipline (the daemon serves one frame at a
// time, so a mutex serialises callers).  RemoteSiteDirectory plugs the
// clients into the scheduler's SiteDirectory seam: Host Selection and
// reselection requests -- the paper's inter-site AFG multicast --
// travel to the site's daemon over the wire, while the static
// topology/WAN queries are answered by a local replica directory (the
// coordinator's own repositories, populated from the same seeded
// testbed, so both sides agree by construction).
//
// Failure semantics: an unreachable daemon yields an EMPTY (infeasible)
// selection, never an exception -- the Site Scheduler then simply
// places nothing on that site, which is exactly how the in-process
// stack treats a site with no eligible hosts.  A transient
// TransportError inside one RPC is retried once, after a 50 ms backoff
// on a fresh connection to the same port (counted in
// `daemon.rpc_retries`), before it surfaces.  A reply gets 10 s.  The
// directory reconnects through the Watchdog on the next request and
// pins each cached client to the daemon incarnation it connected to,
// so a connection into a stale (pre-restart) daemon is fenced off and
// dropped rather than silently answering with dead state (D17).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "datamgr/tcp.hpp"
#include "runtime/watchdog.hpp"
#include "runtime/wire.hpp"
#include "scheduler/directory.hpp"

namespace vdce::daemon {

/// Blocking request/reply client over one daemon connection.
/// Thread-safe: one RPC is in flight at a time.
class DaemonClient {
 public:
  /// Connects to a daemon's RPC port.
  explicit DaemonClient(std::uint16_t port);

  /// The daemon incarnation this client is pinned to (0 = unknown);
  /// RemoteSiteDirectory drops clients whose incarnation went stale.
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }
  void set_incarnation(std::uint32_t incarnation) {
    incarnation_ = incarnation;
  }

  /// Advances the daemon's Control Manager to `now`.
  void tick(common::TimePoint now);
  /// Ships the AFG (as text) and runs Host Selection remotely.
  [[nodiscard]] sched::HostSelectionMap host_selection(
      const afg::FlowGraph& graph, std::size_t threads);
  [[nodiscard]] sched::HostSelection host_reselection(
      const afg::TaskNode& node, const std::vector<common::HostId>& excluded);
  void report_task_failure(const rt::RescheduleRequest& request);
  /// Asks the daemon process to exit cleanly.
  void shutdown();

 private:
  /// Sends `request`, waits for the reply, checks it is `expect` (an
  /// ErrorReply re-throws as StateError; anything else is a protocol
  /// violation).  Retries a TransportError once on a fresh connection
  /// after a backoff; a second one is thrown.
  [[nodiscard]] std::vector<std::byte> call(
      std::span<const std::byte> request, rt::wire::MsgType expect);
  /// One attempt (lock held by call).
  [[nodiscard]] std::vector<std::byte> call_once(
      std::span<const std::byte> request, rt::wire::MsgType expect);

  std::uint16_t port_;
  std::uint32_t incarnation_ = 0;
  std::unique_ptr<dm::TcpChannel> channel_;
  std::mutex mu_;
};

/// Counters for the daemon-mode coordination experiments.
struct RemoteDirectoryStats {
  std::size_t remote_selections = 0;
  std::size_t remote_reselections = 0;
  std::size_t transport_failures = 0;
};

/// SiteDirectory whose Host Selection queries go to site daemons.
class RemoteSiteDirectory final : public sched::SiteDirectory {
 public:
  /// `replica` answers the static queries (sites, distances, transfer
  /// and base times) from the coordinator's local repositories;
  /// `watchdog` maps a site to its current daemon RPC port.  Both must
  /// outlive the directory.  Sites not in `remote_sites` fall back to
  /// the replica entirely.
  RemoteSiteDirectory(sched::SiteDirectory& replica, rt::Watchdog& watchdog,
                      std::vector<common::SiteId> remote_sites);

  [[nodiscard]] std::vector<common::SiteId> sites() const override;
  [[nodiscard]] common::Duration site_distance(
      common::SiteId a, common::SiteId b) const override;
  [[nodiscard]] common::Duration transfer_time(common::SiteId a,
                                               common::SiteId b,
                                               double mb) const override;
  [[nodiscard]] sched::HostSelectionMap host_selection(
      common::SiteId site, const afg::FlowGraph& graph,
      std::size_t threads = 1) override;
  [[nodiscard]] sched::HostSelection host_reselection(
      common::SiteId site, const afg::TaskNode& node,
      const std::vector<common::HostId>& excluded) override;
  [[nodiscard]] common::Duration base_time(
      const std::string& library_task) const override;
  [[nodiscard]] common::Duration host_transfer_time(common::HostId from,
                                                    common::HostId to,
                                                    double mb) const override;

  /// Drives one remote Control Manager tick on every remote site.
  void tick_all(common::TimePoint now);

  [[nodiscard]] RemoteDirectoryStats stats() const;

 private:
  /// Current client for `site`, (re)connecting through the watchdog;
  /// nullptr when the site has no live daemon.
  [[nodiscard]] std::shared_ptr<DaemonClient> client(common::SiteId site);
  /// Drops a cached client after a transport failure so the next call
  /// reconnects (the daemon may have restarted on a new port).
  void drop_client(common::SiteId site);

  sched::SiteDirectory* replica_;
  rt::Watchdog* watchdog_;
  std::vector<common::SiteId> remote_sites_;
  mutable std::mutex mu_;
  std::map<common::SiteId, std::shared_ptr<DaemonClient>> clients_;
  RemoteDirectoryStats stats_;
};

}  // namespace vdce::daemon
