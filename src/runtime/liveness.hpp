// Quorum liveness directory (design D17).
//
// D14 left site-death a single point of judgment: one watchdog timer
// missing one heartbeat deadline declared the site dead, so a slow
// coordinator link or a transient partition triggered false failovers.
// The LivenessDirectory replaces that verdict with a SWIM-style state
// machine per site:
//
//     alive --(witness suspicion)--> suspect --(quorum | unrefuted
//     deadline | first-hand death)--> dead
//
// Evidence comes from WITNESSES: the watchdog's heartbeat timer is one,
// every peer site daemon is another (they gossip-probe each other and
// report through peer-health digests, refutations, and indirect
// ping-req probes).  Death is declared only when
//
//   * `quorum` distinct witnesses concur (deaths_quorum),
//   * or a suspicion sits unrefuted past `suspicion_timeout_s`
//     (deaths_timeout -- the degenerate single-watchdog deployment
//     still converges),
//   * or first-hand evidence arrives (a reaped child process, an EOF on
//     an authenticated heartbeat connection: deaths_conclusive).
//
// Every piece of evidence carries the INCARNATION it is about; evidence
// about any other incarnation is discarded (fencing: a stale daemon
// limping back cannot vouch for -- or be blamed as -- its successor).
// A refutation from a higher incarnation cancels suspicion outright.
//
// Hosts only carry a decayed FLAP SCORE (no incarnations, no votes):
// reported failures past `flap_open_threshold` quarantine a host until
// the score decays below `flap_close_threshold`.  This is the
// coordinator's only liveness judge.  It is clock-injectable (tests
// drive virtual time), fully thread-safe, and never calls back into
// its callers, so callers may hold their own locks across calls.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"

namespace vdce::rt {

using common::HostId;
using common::SiteId;

enum class SiteLiveness : std::uint8_t {
  kAlive = 0,
  kSuspect = 1,
  kDead = 2,
};

[[nodiscard]] const char* to_string(SiteLiveness state);

/// Gossip digest entries older than this, seconds, are too stale to
/// refute a suspicion with.
inline constexpr double kDigestFreshnessS = 0.5;

struct LivenessConfig {
  /// Distinct witnesses whose concurring suspicion confirms a death.
  /// 1 reproduces the old single-timer behaviour (the watchdog's own
  /// vote is immediately decisive).
  int quorum = 2;
  /// A suspicion left unrefuted this long becomes a death even below
  /// quorum -- the liveness backstop for deployments with no peers
  /// left to vote.
  double suspicion_timeout_s = 1.0;
  /// Host flap policy.  The default never quarantines: quarantine
  /// changes which hosts the engine trusts, so failover deployments opt
  /// in by lowering the open threshold.
  double flap_open_threshold = std::numeric_limits<double>::infinity();
  double flap_close_threshold = 1.0;
  double flap_half_life_s = 30.0;
};

/// Point-in-time liveness snapshot of one site.
struct SiteLivenessStatus {
  SiteLiveness state = SiteLiveness::kAlive;
  std::uint32_t incarnation = 0;
  /// Witnesses currently voting the site dead.
  std::size_t witnesses = 0;
  /// Steady seconds when the site entered suspect (0 when not).
  double suspect_since_s = 0.0;
  /// Reason attached to the last state transition.
  std::string reason;
};

/// Counters since construction (mirrors the liveness.* metrics).
struct LivenessStats {
  std::uint64_t suspects = 0;
  std::uint64_t refutations = 0;
  std::uint64_t deaths_quorum = 0;
  std::uint64_t deaths_timeout = 0;
  std::uint64_t deaths_conclusive = 0;
  std::uint64_t false_alarm_recoveries = 0;
  /// Host flap-policy quarantines opened.
  std::uint64_t quarantines = 0;
};

/// Multi-witness per-site liveness state machines plus the per-host
/// flap policy (D17).
class LivenessDirectory {
 public:
  explicit LivenessDirectory(LivenessConfig config = {});

  /// The watchdog's own witness identity (its heartbeat-deadline vote).
  /// Distinct from every real site and from SiteId::invalid().
  [[nodiscard]] static SiteId watchdog_witness() {
    return SiteId(0xFFFFFFFEu);
  }

  [[nodiscard]] const LivenessConfig& config() const { return config_; }

  /// Replaces the steady clock (tests drive virtual time).
  void set_clock(std::function<double()> clock);

  /// (Re)registers a site at `incarnation`: state alive, votes cleared.
  /// The watchdog calls this at every (re)launch; evidence about any
  /// other incarnation is ignored from then on.
  void track(SiteId site, std::uint32_t incarnation);

  /// First-hand proof of life (an authenticated heartbeat).  Clears
  /// every suspicion vote; a suspect site recovers to alive
  /// (false_alarm_recoveries).  Evidence about a past incarnation is
  /// dropped; a HIGHER incarnation re-tracks (even out of dead -- the
  /// successor process is a different liveness subject).
  void direct_alive(SiteId site, std::uint32_t incarnation);

  /// One witness votes the site dead.  alive -> suspect on the first
  /// vote; quorum concurring witnesses -> dead.  Idempotent per
  /// witness.  Returns the resulting state.
  SiteLiveness suspect(SiteId site, std::uint32_t incarnation, SiteId witness,
                       const std::string& why);

  /// One witness withdraws (or pre-empts) its vote: fresh second-hand
  /// evidence the site is alive.  Extends the suspicion deadline but
  /// does NOT flip suspect back to alive -- only first-hand heartbeats
  /// do.  A refutation from a HIGHER incarnation cancels the suspicion
  /// outright (the site restarted and announced itself).  Returns the
  /// resulting state.
  SiteLiveness refute(SiteId site, std::uint32_t incarnation, SiteId witness);

  /// First-hand death (reaped child, heartbeat-connection EOF): dead
  /// immediately, no quorum needed.  Returns the resulting state.
  SiteLiveness conclusive_dead(SiteId site, std::uint32_t incarnation,
                               const std::string& why);

  /// Expires unrefuted suspicions; returns the sites that just turned
  /// dead (each reported exactly once).
  std::vector<SiteId> poll();

  [[nodiscard]] SiteLiveness state(SiteId site) const;
  [[nodiscard]] SiteLivenessStatus status(SiteId site) const;
  [[nodiscard]] LivenessStats stats() const;

  /// One engine-reported failure of `host` (flap policy).  Returns true
  /// when this report opened a quarantine; the caller drops what it
  /// cached about the host.  Never touches any site's state.
  bool report_host_failure(HostId host);
  /// Whether `host` is quarantined now (decay applies at read time).
  [[nodiscard]] bool quarantined(HostId host) const;
  [[nodiscard]] std::vector<HostId> quarantined_hosts() const;
  /// Decayed flap score now (0 for a host never reported).
  [[nodiscard]] double flap_score(HostId host) const;

 private:
  struct Entry {
    SiteLiveness state = SiteLiveness::kAlive;
    std::uint32_t incarnation = 0;
    std::set<SiteId> votes;
    double suspect_since_s = 0.0;
    /// Steady seconds of the last refutation (extends the deadline).
    double last_refutation_s = 0.0;
    std::string reason;
  };

  struct HostFlap {
    double score = 0.0;
    double updated_s = 0.0;
    bool open = false;
  };

  /// Resets `e` to a fresh subject at `incarnation`: alive, no votes.
  static void retrack(Entry& e, std::uint32_t incarnation, const char* why);
  /// Transitions `e` to dead (lock held).
  void die_locked(SiteId site, Entry& e, const std::string& why,
                  std::uint64_t LivenessStats::*counter, const char* metric);
  /// `flap` decayed to `now`, released when below the close threshold.
  [[nodiscard]] HostFlap decayed(HostFlap flap, double now) const;
  /// The decayed flap state of `host` now (lock held).
  [[nodiscard]] HostFlap flap_locked(HostId host) const;

  LivenessConfig config_;
  std::function<double()> clock_;
  mutable std::mutex mu_;
  std::map<SiteId, Entry> entries_;
  std::map<HostId, HostFlap> hosts_;
  LivenessStats stats_;
};

}  // namespace vdce::rt
