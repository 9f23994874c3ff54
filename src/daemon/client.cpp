#include "daemon/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "afg/serialize.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"

namespace vdce::daemon {

namespace wire = rt::wire;
using common::StateError;
using common::TransportError;

namespace {

/// How long an RPC waits for its reply, and a directory for a site's
/// live daemon.
constexpr double kRpcTimeoutS = 10.0;
/// The pause before an RPC's one retry.
constexpr auto kRpcBackoff = std::chrono::milliseconds(50);

}  // namespace

DaemonClient::DaemonClient(std::uint16_t port)
    : port_(port), channel_(dm::tcp_connect(port)) {}

std::vector<std::byte> DaemonClient::call(std::span<const std::byte> request,
                                          wire::MsgType expect) {
  const std::lock_guard lock(mu_);
  try {
    return call_once(request, expect);
  } catch (const TransportError& e) {
    common::MetricsRegistry::global().counter("daemon.rpc_retries").add(1);
    common::log_warn("daemon_client", "RPC failed (", e.what(),
                     "); retrying once in ", kRpcBackoff.count(), " ms");
    std::this_thread::sleep_for(kRpcBackoff);
    // On a fresh connection: the old one is half-dead at best.
    channel_.reset();
    return call_once(request, expect);
  }
}

std::vector<std::byte> DaemonClient::call_once(
    std::span<const std::byte> request, wire::MsgType expect) {
  if (!channel_) channel_ = dm::tcp_connect(port_);
  channel_->send(request);
  const auto reply = channel_->receive_for(kRpcTimeoutS);
  if (!reply) {
    throw TransportError("daemon closed the connection mid-RPC");
  }
  const wire::MsgType got = wire::peek_type(*reply);
  if (got == wire::MsgType::kErrorReply) {
    throw StateError("daemon RPC failed: " +
                     wire::decode<wire::ErrorReply>(*reply).what);
  }
  if (got != expect) {
    throw common::ParseError(std::string("daemon RPC reply type mismatch: ") +
                             "expected " + wire::to_string(expect) +
                             ", got " + wire::to_string(got));
  }
  return *reply;
}

void DaemonClient::tick(common::TimePoint now) {
  (void)call(wire::encode(wire::TickRequest{now}), wire::MsgType::kAck);
}

sched::HostSelectionMap DaemonClient::host_selection(
    const afg::FlowGraph& graph, std::size_t threads) {
  wire::HostSelectionRequest req;
  req.graph_text = afg::to_text(graph);
  req.threads = static_cast<std::uint32_t>(std::max<std::size_t>(1, threads));
  const auto reply =
      call(wire::encode(req), wire::MsgType::kHostSelectionResponse);
  return wire::decode<wire::HostSelectionResponse>(reply).selection;
}

sched::HostSelection DaemonClient::host_reselection(
    const afg::TaskNode& node, const std::vector<common::HostId>& excluded) {
  const auto reply =
      call(wire::encode(wire::make_reselection_request(node, excluded)),
           wire::MsgType::kReselectionResponse);
  return wire::decode<wire::ReselectionResponse>(reply).selection;
}

void DaemonClient::report_task_failure(const rt::RescheduleRequest& request) {
  (void)call(wire::encode(request), wire::MsgType::kAck);
}

void DaemonClient::shutdown() {
  (void)call(wire::encode(wire::ShutdownRequest{}), wire::MsgType::kAck);
}

// ---------------------------------------------------------------------------

RemoteSiteDirectory::RemoteSiteDirectory(sched::SiteDirectory& replica,
                                         rt::Watchdog& watchdog,
                                         std::vector<common::SiteId> sites)
    : replica_(&replica),
      watchdog_(&watchdog),
      remote_sites_(std::move(sites)) {}

std::vector<common::SiteId> RemoteSiteDirectory::sites() const {
  return replica_->sites();
}

common::Duration RemoteSiteDirectory::site_distance(common::SiteId a,
                                                    common::SiteId b) const {
  return replica_->site_distance(a, b);
}

common::Duration RemoteSiteDirectory::transfer_time(common::SiteId a,
                                                    common::SiteId b,
                                                    double mb) const {
  return replica_->transfer_time(a, b, mb);
}

common::Duration RemoteSiteDirectory::base_time(
    const std::string& library_task) const {
  return replica_->base_time(library_task);
}

common::Duration RemoteSiteDirectory::host_transfer_time(common::HostId from,
                                                         common::HostId to,
                                                         double mb) const {
  return replica_->host_transfer_time(from, to, mb);
}

std::shared_ptr<DaemonClient> RemoteSiteDirectory::client(
    common::SiteId site) {
  // D17 fencing: a cached client pinned to an older incarnation is
  // talking to a daemon that no longer exists (or, worse, a stale one
  // still draining) -- drop it and reconnect to the reincarnation.
  const std::uint32_t current = watchdog_->incarnation(site);
  {
    const std::lock_guard lock(mu_);
    const auto it = clients_.find(site);
    if (it != clients_.end()) {
      if (current == 0 || it->second->incarnation() == current) {
        return it->second;
      }
      clients_.erase(it);
    }
  }
  // Connect outside the lock: rpc_endpoint blocks up to its timeout.
  std::shared_ptr<DaemonClient> fresh;
  try {
    const rt::RpcEndpoint endpoint =
        watchdog_->rpc_endpoint(site, kRpcTimeoutS);
    fresh = std::make_shared<DaemonClient>(endpoint.port);
    fresh->set_incarnation(endpoint.incarnation);
  } catch (const TransportError& e) {
    common::log_warn("remote_directory", "site ", site.value(),
                     " unreachable: ", e.what());
    const std::lock_guard lock(mu_);
    ++stats_.transport_failures;
    return nullptr;
  }
  const std::lock_guard lock(mu_);
  auto [it, inserted] = clients_.emplace(site, fresh);
  return it->second;  // keep the racing winner
}

void RemoteSiteDirectory::drop_client(common::SiteId site) {
  const std::lock_guard lock(mu_);
  clients_.erase(site);
  ++stats_.transport_failures;
}

sched::HostSelectionMap RemoteSiteDirectory::host_selection(
    common::SiteId site, const afg::FlowGraph& graph, std::size_t threads) {
  if (std::find(remote_sites_.begin(), remote_sites_.end(), site) ==
      remote_sites_.end()) {
    return replica_->host_selection(site, graph, threads);
  }
  const auto c = client(site);
  if (!c) return {};  // no live daemon: infeasible, not fatal
  try {
    auto selection = c->host_selection(graph, threads);
    const std::lock_guard lock(mu_);
    ++stats_.remote_selections;
    return selection;
  } catch (const TransportError&) {
    drop_client(site);
    return {};
  }
}

sched::HostSelection RemoteSiteDirectory::host_reselection(
    common::SiteId site, const afg::TaskNode& node,
    const std::vector<common::HostId>& excluded) {
  if (std::find(remote_sites_.begin(), remote_sites_.end(), site) ==
      remote_sites_.end()) {
    return replica_->host_reselection(site, node, excluded);
  }
  const auto c = client(site);
  if (!c) return {};
  try {
    auto selection = c->host_reselection(node, excluded);
    const std::lock_guard lock(mu_);
    ++stats_.remote_reselections;
    return selection;
  } catch (const TransportError&) {
    drop_client(site);
    return {};
  }
}

void RemoteSiteDirectory::tick_all(common::TimePoint now) {
  for (const common::SiteId site : remote_sites_) {
    const auto c = client(site);
    if (!c) continue;
    try {
      c->tick(now);
    } catch (const TransportError&) {
      drop_client(site);
    }
  }
}

RemoteDirectoryStats RemoteSiteDirectory::stats() const {
  const std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace vdce::daemon
