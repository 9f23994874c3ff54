#include "runtime/liveness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/log.hpp"
#include "common/metrics.hpp"

namespace vdce::rt {

namespace {

void bump(const char* name) {
  common::MetricsRegistry::global().counter(name).add(1);
}

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(SiteLiveness state) {
  switch (state) {
    case SiteLiveness::kAlive: return "alive";
    case SiteLiveness::kSuspect: return "suspect";
    case SiteLiveness::kDead: return "dead";
  }
  return "unknown";
}

LivenessDirectory::LivenessDirectory(LivenessConfig config)
    : config_(config), clock_(steady_now_s) {}

void LivenessDirectory::set_clock(std::function<double()> clock) {
  const std::lock_guard lock(mu_);
  clock_ = std::move(clock);
}

void LivenessDirectory::track(SiteId site, std::uint32_t incarnation) {
  const std::lock_guard lock(mu_);
  retrack(entries_[site], incarnation, "tracked");
}

void LivenessDirectory::direct_alive(SiteId site, std::uint32_t incarnation) {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (incarnation < e.incarnation) return;  // fenced: stale process
  if (incarnation == e.incarnation && e.state == SiteLiveness::kDead) {
    return;  // the verdict on this incarnation is final
  }
  const bool recovered = e.state == SiteLiveness::kSuspect;
  retrack(e, incarnation, "heartbeat");
  if (recovered) {
    ++stats_.false_alarm_recoveries;
    bump("liveness.false_alarm_recoveries");
    common::log_info("liveness", "site ", site.value(),
                     " recovered from suspicion (heartbeat)");
  }
}

SiteLiveness LivenessDirectory::suspect(SiteId site, std::uint32_t incarnation,
                                        SiteId witness,
                                        const std::string& why) {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  if (it == entries_.end()) return SiteLiveness::kAlive;
  Entry& e = it->second;
  if (incarnation != e.incarnation) return e.state;  // fenced
  if (e.state == SiteLiveness::kDead) return e.state;
  const bool fresh_vote = e.votes.insert(witness).second;
  if (e.state == SiteLiveness::kAlive) {
    e.state = SiteLiveness::kSuspect;
    e.suspect_since_s = clock_();
    e.last_refutation_s = 0.0;
    e.reason = why;
    ++stats_.suspects;
    bump("liveness.suspects");
    common::log_warn("liveness", "site ", site.value(), " suspected by ",
                     witness.value(), " (", why, ")");
  }
  if (fresh_vote &&
      e.votes.size() >= static_cast<std::size_t>(config_.quorum)) {
    die_locked(site, e, why + " [quorum " + std::to_string(e.votes.size()) +
                            "/" + std::to_string(config_.quorum) + "]",
               &LivenessStats::deaths_quorum, "liveness.deaths_quorum");
  }
  return e.state;
}

SiteLiveness LivenessDirectory::refute(SiteId site, std::uint32_t incarnation,
                                       SiteId witness) {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  if (it == entries_.end()) return SiteLiveness::kAlive;
  Entry& e = it->second;
  if (incarnation > e.incarnation) {
    // The site restarted and a peer already heard the new incarnation:
    // everything known about the old one is void.
    retrack(e, incarnation, "refuted by higher incarnation");
    ++stats_.refutations;
    bump("liveness.refutations");
    return e.state;
  }
  if (incarnation < e.incarnation) return e.state;  // fenced
  if (e.state == SiteLiveness::kDead) return e.state;
  const bool withdrew = e.votes.erase(witness) > 0;
  if (e.state == SiteLiveness::kSuspect) {
    e.last_refutation_s = clock_();
    ++stats_.refutations;
    bump("liveness.refutations");
  } else if (withdrew) {
    ++stats_.refutations;
    bump("liveness.refutations");
  }
  return e.state;
}

SiteLiveness LivenessDirectory::conclusive_dead(SiteId site,
                                                std::uint32_t incarnation,
                                                const std::string& why) {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  if (it == entries_.end()) return SiteLiveness::kAlive;
  Entry& e = it->second;
  if (incarnation != e.incarnation) return e.state;  // fenced
  if (e.state == SiteLiveness::kDead) return e.state;
  die_locked(site, e, why, &LivenessStats::deaths_conclusive,
             "liveness.deaths_conclusive");
  return e.state;
}

std::vector<SiteId> LivenessDirectory::poll() {
  const std::lock_guard lock(mu_);
  std::vector<SiteId> died;
  const double now = clock_();
  for (auto& [site, e] : entries_) {
    if (e.state != SiteLiveness::kSuspect) continue;
    const double anchor = std::max(e.suspect_since_s, e.last_refutation_s);
    if (now - anchor > config_.suspicion_timeout_s) {
      die_locked(site, e, "suspicion unrefuted for " +
                              std::to_string(now - anchor) + "s",
                 &LivenessStats::deaths_timeout, "liveness.deaths_timeout");
      died.push_back(site);
    }
  }
  return died;
}

void LivenessDirectory::retrack(Entry& e, std::uint32_t incarnation,
                                const char* why) {
  e = Entry{};
  e.incarnation = incarnation;
  e.reason = why;
}

void LivenessDirectory::die_locked(SiteId site, Entry& e,
                                   const std::string& why,
                                   std::uint64_t LivenessStats::*counter,
                                   const char* metric) {
  e.state = SiteLiveness::kDead;
  e.reason = why;
  ++(stats_.*counter);
  bump(metric);
  common::log_warn("liveness", "site ", site.value(), " incarnation ",
                   e.incarnation, " confirmed dead: ", why);
}

SiteLiveness LivenessDirectory::state(SiteId site) const {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  return it == entries_.end() ? SiteLiveness::kAlive : it->second.state;
}

SiteLivenessStatus LivenessDirectory::status(SiteId site) const {
  const std::lock_guard lock(mu_);
  SiteLivenessStatus s;
  const auto it = entries_.find(site);
  if (it == entries_.end()) return s;
  const Entry& e = it->second;
  s.state = e.state;
  s.incarnation = e.incarnation;
  s.witnesses = e.votes.size();
  s.suspect_since_s = e.suspect_since_s;
  s.reason = e.reason;
  return s;
}

LivenessStats LivenessDirectory::stats() const {
  const std::lock_guard lock(mu_);
  return stats_;
}

LivenessDirectory::HostFlap LivenessDirectory::decayed(HostFlap flap,
                                                       double now) const {
  if (config_.flap_half_life_s > 0.0 && now > flap.updated_s) {
    flap.score *= std::exp2(-(now - flap.updated_s) / config_.flap_half_life_s);
    flap.updated_s = now;
  }
  if (flap.open && flap.score < config_.flap_close_threshold) {
    flap.open = false;
  }
  return flap;
}

LivenessDirectory::HostFlap LivenessDirectory::flap_locked(HostId host) const {
  const auto it = hosts_.find(host);
  return it == hosts_.end() ? HostFlap{} : decayed(it->second, clock_());
}

bool LivenessDirectory::report_host_failure(HostId host) {
  const std::lock_guard lock(mu_);
  HostFlap& flap = hosts_[host];
  flap = decayed(flap, clock_());
  flap.score += 1.0;
  if (flap.open || flap.score < config_.flap_open_threshold) return false;
  flap.open = true;
  ++stats_.quarantines;
  bump("liveness.quarantines");
  common::log_warn("liveness", "host ", host.value(),
                   " quarantined (flap score ", flap.score, ")");
  return true;
}

bool LivenessDirectory::quarantined(HostId host) const {
  const std::lock_guard lock(mu_);
  return flap_locked(host).open;
}

std::vector<HostId> LivenessDirectory::quarantined_hosts() const {
  const std::lock_guard lock(mu_);
  std::vector<HostId> out;
  const double now = clock_();
  for (const auto& [host, flap] : hosts_) {
    if (decayed(flap, now).open) out.push_back(host);
  }
  return out;
}

double LivenessDirectory::flap_score(HostId host) const {
  const std::lock_guard lock(mu_);
  return flap_locked(host).score;
}

}  // namespace vdce::rt
