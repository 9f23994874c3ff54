#include "runtime/watchdog.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "runtime/wire.hpp"

namespace vdce::rt {

using common::TransportError;

namespace {

/// Growth of the restart backoff per restart.
constexpr double kRestartBackoffMultiplier = 2.0;
/// Jitter fraction on the restart backoff: each (site, restart) waits
/// backoff * (1 + jitter * u) with u in [0, 1) drawn deterministically
/// from (seed, site, restart).
constexpr double kRestartBackoffJitter = 0.5;
/// Peers asked to indirectly probe each suspect per round.
constexpr int kProbeFanout = 3;

}  // namespace

double Watchdog::now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Watchdog::restart_backoff(const WatchdogConfig& config, SiteId site,
                                 std::size_t restart_index) {
  const double base =
      config.restart_backoff_s *
      std::pow(kRestartBackoffMultiplier, static_cast<double>(restart_index));
  // One deterministic draw per (seed, site, restart): decorrelates the
  // restart storms of a multi-site outage without losing replayability.
  common::Rng rng(config.seed ^
                  (0x9E3779B97F4A7C15ull * (site.value() + 1ull)) ^
                  (0xBF58476D1CE4E5B9ull * (restart_index + 1ull)));
  return base * (1.0 + kRestartBackoffJitter * rng.uniform());
}

Watchdog::Watchdog(WatchdogConfig config)
    : config_(std::move(config)), liveness_(config_.liveness) {
  common::expects(!config_.daemon_path.empty(),
                  "watchdog needs the site daemon binary path");
  beats_.start([this](dm::TcpChannel& channel) { beat_session(channel); });
  monitor_ = std::thread([this] { monitor_loop(); });
  if (config_.gossip) prober_ = std::thread([this] { prober_loop(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::set_on_site_down(std::function<void(SiteId)> callback) {
  const std::lock_guard lock(mu_);
  on_site_down_ = std::move(callback);
}

void Watchdog::set_on_site_up(std::function<void(SiteId)> callback) {
  const std::lock_guard lock(mu_);
  on_site_up_ = std::move(callback);
}

std::uint16_t Watchdog::heartbeat_port() const { return beats_.port(); }

void Watchdog::launch_locked(Daemon& d) {
  ++d.incarnation;
  if (d.incarnation > 1) {
    ++d.restarts;
    common::MetricsRegistry::global().counter("watchdog.restarts").add(1);
  }
  d.rpc_port = 0;
  d.gossip_port = 0;
  d.up = false;
  d.restart_at_s = 0.0;
  d.last_beat_s = now_s();  // grace: the timeout clock starts at launch
  liveness_.track(d.site, d.incarnation);

  const std::string site_arg = std::to_string(d.site.value());
  const std::string seed_arg = std::to_string(config_.seed);
  const std::string port_arg = std::to_string(beats_.port());
  const std::string period_arg = std::to_string(config_.heartbeat_period_s);
  const std::string incarnation_arg = std::to_string(d.incarnation);
  const std::string gossip_arg = config_.gossip ? "1" : "0";
  const std::string gossip_period_arg =
      std::to_string(config_.gossip_period_s);
  std::vector<const char*> argv = {config_.daemon_path.c_str(),
                                   "--site", site_arg.c_str(),
                                   "--seed", seed_arg.c_str(),
                                   "--heartbeat-port", port_arg.c_str(),
                                   "--heartbeat-period", period_arg.c_str(),
                                   "--incarnation", incarnation_arg.c_str(),
                                   "--gossip", gossip_arg.c_str(),
                                   "--gossip-period",
                                   gossip_period_arg.c_str()};
  if (!config_.partition_spec.empty()) {
    argv.push_back("--partition-spec");
    argv.push_back(config_.partition_spec.c_str());
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw TransportError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls between fork and exec.
    ::execv(config_.daemon_path.c_str(),
            const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  d.pid = pid;
}

void Watchdog::spawn(SiteId site) {
  const std::lock_guard lock(mu_);
  common::expects(!stopping_, "watchdog is stopping");
  auto [it, inserted] = daemons_.emplace(site, Daemon{});
  common::expects(inserted, "site already supervised");
  it->second.site = site;
  launch_locked(it->second);
}

void Watchdog::apply_digest(const wire::PeerDigest& digest) {
  // Fencing: a digest from a stale incarnation of the origin must not
  // vote or refute on behalf of its successor.
  {
    const std::lock_guard lock(mu_);
    const auto it = daemons_.find(digest.origin_site);
    if (it == daemons_.end() ||
        it->second.incarnation != digest.origin_incarnation) {
      return;
    }
  }
  for (const wire::PeerHealth& peer : digest.peers) {
    if (peer.site == digest.origin_site) continue;
    if (peer.reachable && peer.age_s <= kDigestFreshnessS) {
      (void)liveness_.refute(peer.site, peer.incarnation,
                             digest.origin_site);
    } else if (!peer.reachable) {
      (void)liveness_.suspect(peer.site, peer.incarnation,
                              digest.origin_site,
                              "peer digest: unreachable from site " +
                                  std::to_string(digest.origin_site.value()));
    }
  }
}

void Watchdog::beat_session(dm::TcpChannel& channel) {
  // The (site, incarnation) this connection authenticated as via its
  // first accepted beat; EOF of an authenticated current-incarnation
  // connection is a death signal in its own right.
  SiteId bound_site = SiteId::invalid();
  std::uint32_t bound_incarnation = 0;
  for (;;) {
    std::optional<std::vector<std::byte>> frame;
    try {
      frame = channel.receive();
    } catch (const TransportError&) {
      frame.reset();  // mid-frame EOF: same as an orderly close here
    }
    if (!frame) break;
    wire::MsgType type;
    try {
      type = wire::peek_type(*frame);
    } catch (const common::ParseError& e) {
      common::log_warn("watchdog", "dropping bad heartbeat frame: ",
                       e.what());
      continue;
    }
    // The heartbeat channel carries three message kinds: the beat
    // itself, piggybacked peer-health digests, and refutations.
    if (type == wire::MsgType::kPeerDigest) {
      try {
        apply_digest(wire::decode<wire::PeerDigest>(*frame));
      } catch (const common::ParseError& e) {
        common::log_warn("watchdog", "dropping bad digest frame: ", e.what());
      }
      continue;
    }
    if (type == wire::MsgType::kRefute) {
      try {
        const auto refute = wire::decode<wire::Refute>(*frame);
        (void)liveness_.refute(refute.site, refute.incarnation,
                               refute.witness_site);
      } catch (const common::ParseError& e) {
        common::log_warn("watchdog", "dropping bad refute frame: ", e.what());
      }
      continue;
    }
    if (type != wire::MsgType::kHeartbeat) {
      common::log_warn("watchdog", "unexpected frame on heartbeat channel: ",
                       wire::to_string(type));
      continue;
    }
    wire::Heartbeat beat;
    try {
      beat = wire::decode<wire::Heartbeat>(*frame);
    } catch (const common::ParseError& e) {
      common::log_warn("watchdog", "dropping bad heartbeat frame: ",
                       e.what());
      continue;
    }
    bool fire_up = false;
    std::function<void(SiteId)> up_cb;
    {
      std::lock_guard lock(mu_);
      const auto it = daemons_.find(beat.site);
      if (it == daemons_.end()) continue;
      Daemon& d = it->second;
      if (beat.incarnation != d.incarnation) continue;  // stale process
      bound_site = beat.site;
      bound_incarnation = beat.incarnation;
      d.last_beat_s = now_s();
      d.rpc_port = beat.rpc_port;
      d.gossip_port = beat.gossip_port;
      ++d.heartbeats;
      if (!d.up) {
        d.up = true;
        fire_up = true;
        up_cb = on_site_up_;
      }
    }
    liveness_.direct_alive(beat.site, beat.incarnation);
    cv_.notify_all();
    if (fire_up && up_cb) up_cb(bound_site);
  }
  // Connection gone: a crash notice faster than the heartbeat deadline
  // about the incarnation this connection authenticated as (the
  // directory fences it if that incarnation is already gone).  Wake the
  // monitor so its verdict sweep acts without waiting for the next poll.
  if (bound_incarnation == 0) return;
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    note_exit(bound_site, bound_incarnation, "heartbeat connection lost");
    sweep_now_ = true;
  }
  cv_.notify_all();
}

void Watchdog::note_exit(SiteId site, std::uint32_t incarnation,
                         const std::string& why) {
  if (config_.trust_process_exit) {
    (void)liveness_.conclusive_dead(site, incarnation, why);
  } else {
    // Quorum mode: even first-hand process exit is only this watchdog's
    // vote (tests force the full gossip/quorum path).
    (void)liveness_.suspect(site, incarnation,
                            LivenessDirectory::watchdog_witness(), why);
  }
}

void Watchdog::declare_down(Daemon& d, const std::string& why) {
  // The daemon may still be running (hung); make the death real before
  // restarting so two incarnations never serve the same site.
  common::log_warn("watchdog", "site ", d.site.value(), " down (", why,
                   "), pid ", d.pid);
  common::MetricsRegistry::global().counter("watchdog.site_down").add(1);
  d.declared_incarnation = d.incarnation;
  d.up = false;
  d.rpc_port = 0;
  d.gossip_port = 0;
  if (d.pid > 0) {
    ::kill(static_cast<pid_t>(d.pid), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<pid_t>(d.pid), &status, 0);
    d.pid = -1;
  }
  if (static_cast<int>(d.restarts) >= config_.max_restarts) {
    d.abandoned = true;
    return;
  }
  d.restart_at_s = now_s() + restart_backoff(config_, d.site, d.restarts);
}

void Watchdog::monitor_loop() {
  const auto poll = std::chrono::duration<double>(
      std::max(0.01, config_.heartbeat_period_s / 2.0));
  const double launch_grace_s =
      config_.heartbeat_timeout_s + config_.restart_backoff_s;
  std::unique_lock lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, poll, [this] { return stopping_ || sweep_now_; });
    if (stopping_) return;
    sweep_now_ = false;
    const double now = now_s();
    // Evidence only: nothing here declares a site down.
    for (auto& [site, d] : daemons_) {
      if (d.declared_incarnation == d.incarnation) continue;  // acted on
      if (d.pid > 0) {
        // A reaped child is the fastest SIGKILL detector...
        int status = 0;
        const pid_t reaped =
            ::waitpid(static_cast<pid_t>(d.pid), &status, WNOHANG);
        if (reaped == static_cast<pid_t>(d.pid)) {
          d.pid = -1;
          note_exit(site, d.incarnation, "process exited");
        }
      }
      // ...and the heartbeat deadline catches hangs and partitions --
      // but it is a witness vote now, not a verdict.
      const double silent_s = now - d.last_beat_s;
      if (d.up && silent_s > config_.heartbeat_timeout_s) {
        (void)liveness_.suspect(site, d.incarnation,
                                LivenessDirectory::watchdog_witness(),
                                "missed heartbeat deadline");
      } else if (!d.up && silent_s > launch_grace_s) {
        // Launched but never beat (maybe crashed before the first
        // beat); no peer ever heard this incarnation, so no quorum can
        // form -- first-hand judgment in both modes.
        (void)liveness_.conclusive_dead(site, d.incarnation,
                                        "no heartbeat after launch");
      }
    }
    // The verdict sweep, the only place a site goes down: suspicions
    // that ran out of time die, then every incarnation the directory
    // holds dead is declared down exactly once.
    (void)liveness_.poll();
    std::vector<SiteId> downs;
    for (auto& [site, d] : daemons_) {
      if (d.declared_incarnation == d.incarnation) continue;
      const SiteLivenessStatus verdict = liveness_.status(site);
      if (verdict.state != SiteLiveness::kDead ||
          verdict.incarnation != d.incarnation) {
        continue;
      }
      declare_down(d, "liveness verdict: " + verdict.reason);
      downs.push_back(site);
    }
    // Due restarts.
    for (auto& [site, d] : daemons_) {
      if (d.restart_at_s > 0.0 && d.restart_at_s <= now) launch_locked(d);
    }

    if (!downs.empty()) {
      auto cb = on_site_down_;
      lock.unlock();
      if (cb) {
        for (const SiteId site : downs) cb(site);
      }
      lock.lock();
    }
  }
}

void Watchdog::prober_loop() {
  struct Snap {
    SiteId site;
    std::uint16_t gossip_port = 0;
    std::uint32_t incarnation = 0;
    bool up = false;
  };
  const auto poll = std::chrono::duration<double>(
      std::max(0.01, config_.gossip_period_s));
  std::uint64_t seq = 0;
  std::vector<std::byte> last_roster;
  std::unique_lock lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, poll, [this] { return stopping_; });
    if (stopping_) return;
    std::vector<Snap> snaps;
    snaps.reserve(daemons_.size());
    for (const auto& [site, d] : daemons_) {
      snaps.push_back({site, d.gossip_port, d.incarnation, d.up});
    }
    lock.unlock();

    // Membership push: every up daemon learns its peers' gossip ports
    // and which sites stand suspected (so a peer that still hears a
    // suspect refutes immediately).
    wire::PeerRoster roster;
    for (const Snap& s : snaps) {
      if (!s.up || s.gossip_port == 0) continue;
      wire::PeerEndpoint e;
      e.site = s.site;
      e.gossip_port = s.gossip_port;
      e.incarnation = s.incarnation;
      e.suspected = liveness_.state(s.site) == SiteLiveness::kSuspect;
      roster.peers.push_back(e);
    }
    const std::vector<std::byte> encoded = wire::encode(roster);
    if (encoded != last_roster && !roster.peers.empty()) {
      bool delivered = true;
      for (const wire::PeerEndpoint& e : roster.peers) {
        try {
          auto channel = dm::tcp_connect(e.gossip_port);
          channel->send(encoded);
        } catch (const TransportError&) {
          delivered = false;  // retry next round
        }
      }
      if (delivered) last_roster = encoded;
    }

    // Indirect probes: ask up to kProbeFanout peers to ping each
    // suspect over their own network path (the SWIM ping-req).
    for (const Snap& suspect : snaps) {
      if (liveness_.state(suspect.site) != SiteLiveness::kSuspect ||
          suspect.gossip_port == 0) {
        continue;
      }
      int asked = 0;
      for (const Snap& helper : snaps) {
        if (helper.site == suspect.site || !helper.up ||
            helper.gossip_port == 0) {
          continue;
        }
        if (asked >= kProbeFanout) break;
        ++asked;
        wire::PingReq req;
        req.origin_site = LivenessDirectory::watchdog_witness();
        req.target_site = suspect.site;
        req.target_gossip_port = suspect.gossip_port;
        req.seq = ++seq;
        try {
          auto channel = dm::tcp_connect(helper.gossip_port);
          channel->send(wire::encode(req));
          const auto reply = channel->receive_for(config_.probe_timeout_s);
          if (!reply ||
              wire::peek_type(*reply) != wire::MsgType::kPingReqReply) {
            continue;
          }
          const auto verdict = wire::decode<wire::PingReqReply>(*reply);
          if (verdict.target_site != suspect.site ||
              verdict.seq != req.seq) {
            continue;
          }
          if (verdict.reachable) {
            (void)liveness_.refute(suspect.site, verdict.target_incarnation,
                                   helper.site);
          } else {
            (void)liveness_.suspect(
                suspect.site, suspect.incarnation, helper.site,
                "indirect probe failed via site " +
                    std::to_string(helper.site.value()));
          }
        } catch (const common::VdceError&) {
          // Helper unreachable or garbled: it simply casts no vote.
        }
      }
    }
    lock.lock();
  }
}

std::uint16_t Watchdog::rpc_port(SiteId site, double timeout_s) {
  return rpc_endpoint(site, timeout_s).port;
}

RpcEndpoint Watchdog::rpc_endpoint(SiteId site, double timeout_s) {
  std::unique_lock lock(mu_);
  const bool ok = cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s), [&] {
        const auto it = daemons_.find(site);
        return stopping_ ||
               (it != daemons_.end() && it->second.up &&
                it->second.rpc_port != 0) ||
               (it != daemons_.end() && it->second.abandoned);
      });
  const auto it = daemons_.find(site);
  if (!ok || it == daemons_.end() || !it->second.up ||
      it->second.rpc_port == 0) {
    throw TransportError("no live daemon for site " +
                         std::to_string(site.value()) + " within " +
                         std::to_string(timeout_s) + "s");
  }
  return RpcEndpoint{it->second.rpc_port, it->second.incarnation};
}

std::uint32_t Watchdog::incarnation(SiteId site) const {
  const std::lock_guard lock(mu_);
  const auto it = daemons_.find(site);
  return it == daemons_.end() ? 0 : it->second.incarnation;
}

DaemonStatus Watchdog::status(SiteId site) const {
  const std::lock_guard lock(mu_);
  const auto it = daemons_.find(site);
  common::expects(it != daemons_.end(), "site not supervised");
  return static_cast<const DaemonStatus&>(it->second);
}

std::size_t Watchdog::total_restarts() const {
  const std::lock_guard lock(mu_);
  std::size_t total = 0;
  for (const auto& [site, d] : daemons_) total += d.restarts;
  return total;
}

void Watchdog::kill_daemon(SiteId site, int sig) {
  std::int64_t pid = -1;
  {
    const std::lock_guard lock(mu_);
    const auto it = daemons_.find(site);
    common::expects(it != daemons_.end(), "site not supervised");
    pid = it->second.pid;
  }
  if (pid > 0) ::kill(static_cast<pid_t>(pid), sig);
}

void Watchdog::stop() {
  std::vector<std::int64_t> pids;
  {
    const std::lock_guard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& [site, d] : daemons_) {
      if (d.pid > 0) pids.push_back(d.pid);
    }
  }
  cv_.notify_all();
  beats_.stop();  // ends every beat session
  for (const std::int64_t pid : pids) {
    ::kill(static_cast<pid_t>(pid), SIGTERM);
  }
  // Brief grace, then make it final.
  const double deadline = now_s() + 1.0;
  for (const std::int64_t pid : pids) {
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
      if (r != 0) break;
      if (now_s() > deadline) {
        ::kill(static_cast<pid_t>(pid), SIGKILL);
        ::waitpid(static_cast<pid_t>(pid), &status, 0);
        break;
      }
      ::usleep(5000);
    }
  }
  if (monitor_.joinable()) monitor_.join();
  if (prober_.joinable()) prober_.join();
  beats_.join();
}

}  // namespace vdce::rt
