#include "netsim/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace vdce::netsim {

namespace {

/// Every generated event lasts [kMinOutageS, kMaxOutageS) seconds.
constexpr Duration kMinOutageS = 5.0;
constexpr Duration kMaxOutageS = 20.0;
/// Partition and deadline-storm counts at intensity 1.
constexpr int kMaxPartitions = 1;
constexpr int kMaxDeadlineStorms = 2;
/// A gray host's extra load is this times a draw in [0.5, 1.5).
constexpr double kGrayExtraLoad = 4.0;
/// Short crash pulses per deadline storm.
constexpr int kStormPulses = 5;

bool site_protected(const ChaosScheduleConfig& cfg, SiteId site) {
  return std::find(cfg.protected_sites.begin(), cfg.protected_sites.end(),
                   site) != cfg.protected_sites.end();
}

int scaled(int max_count, double intensity) {
  if (max_count <= 0 || intensity <= 0.0) return 0;
  return static_cast<int>(max_count * std::min(intensity, 1.0) + 0.5);
}

}  // namespace

const char* to_string(ChaosEventKind kind) {
  switch (kind) {
    case ChaosEventKind::kHostCrash: return "host_crash";
    case ChaosEventKind::kSiteOutage: return "site_outage";
    case ChaosEventKind::kPartition: return "partition";
    case ChaosEventKind::kGrayHost: return "gray_host";
    case ChaosEventKind::kDeadlineStorm: return "deadline_storm";
    case ChaosEventKind::kDaemonKill: return "daemon_kill";
  }
  return "unknown";
}

ChaosSchedule ChaosSchedule::generate(const VirtualTestbed& bed,
                                      const ChaosScheduleConfig& cfg) {
  ChaosSchedule schedule;
  common::Rng rng(cfg.seed);

  std::vector<HostId> targets;
  for (const HostId host : bed.all_hosts()) {
    if (!site_protected(cfg, bed.site_of(host))) targets.push_back(host);
  }
  std::vector<SiteId> target_sites;
  for (const SiteId site : bed.sites()) {
    if (!site_protected(cfg, site)) target_sites.push_back(site);
  }
  const std::vector<SiteId> all_sites = bed.sites();

  const auto window = [&](ChaosEvent& event) {
    event.start = rng.uniform(0.0, cfg.horizon_s);
    event.length = rng.uniform(kMinOutageS, kMaxOutageS);
  };

  if (!targets.empty()) {
    for (int i = 0; i < scaled(cfg.max_crashes, cfg.intensity); ++i) {
      ChaosEvent event;
      event.kind = ChaosEventKind::kHostCrash;
      event.host = targets[rng.uniform_int(targets.size())];
      window(event);
      schedule.add(event);
    }
    for (int i = 0; i < scaled(cfg.max_gray_hosts, cfg.intensity); ++i) {
      ChaosEvent event;
      event.kind = ChaosEventKind::kGrayHost;
      event.host = targets[rng.uniform_int(targets.size())];
      event.extra_load = kGrayExtraLoad * rng.uniform(0.5, 1.5);
      window(event);
      schedule.add(event);
    }
    for (int i = 0; i < scaled(kMaxDeadlineStorms, cfg.intensity); ++i) {
      ChaosEvent event;
      event.kind = ChaosEventKind::kDeadlineStorm;
      event.host = targets[rng.uniform_int(targets.size())];
      event.pulses = kStormPulses;
      window(event);
      schedule.add(event);
    }
  }
  if (!target_sites.empty()) {
    for (int i = 0; i < scaled(cfg.max_site_outages, cfg.intensity); ++i) {
      ChaosEvent event;
      event.kind = ChaosEventKind::kSiteOutage;
      event.site = target_sites[rng.uniform_int(target_sites.size())];
      window(event);
      schedule.add(event);
    }
  }
  if (all_sites.size() >= 2) {
    for (int i = 0; i < scaled(kMaxPartitions, cfg.intensity); ++i) {
      ChaosEvent event;
      event.kind = ChaosEventKind::kPartition;
      const std::size_t a = rng.uniform_int(all_sites.size());
      std::size_t b = rng.uniform_int(all_sites.size() - 1);
      if (b >= a) ++b;
      event.site = all_sites[a];
      event.other_site = all_sites[b];
      window(event);
      schedule.add(event);
    }
  }
  return schedule;
}

std::size_t ChaosSchedule::count(ChaosEventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const ChaosEvent& e) { return e.kind == kind; }));
}

void ChaosSchedule::apply(VirtualTestbed& bed) const {
  for (const ChaosEvent& event : events_) {
    switch (event.kind) {
      case ChaosEventKind::kHostCrash:
        bed.fail_host(event.host, event.start, event.length);
        break;
      case ChaosEventKind::kSiteOutage:
        for (const HostId host : bed.hosts_in_site(event.site)) {
          bed.fail_host(host, event.start, event.length);
        }
        break;
      case ChaosEventKind::kGrayHost: {
        LoadSpike spike;
        spike.start = event.start;
        spike.length = event.length;
        spike.extra_load = event.extra_load;
        bed.add_load_spike(event.host, spike);
        break;
      }
      case ChaosEventKind::kDeadlineStorm: {
        // `pulses` short crashes spread evenly over the window; the
        // host flaps dead/alive, firing receive deadlines without a
        // durable outage -- flap-quarantine bait.
        const int n = std::max(1, event.pulses);
        const Duration pulse = event.length / (2.0 * n);
        for (int i = 0; i < n; ++i) {
          bed.fail_host(event.host, event.start + 2.0 * i * pulse, pulse);
        }
        break;
      }
      case ChaosEventKind::kPartition:
        break;  // served via reachable(), never installed
      case ChaosEventKind::kDaemonKill:
        break;  // real process death: delivered by apply_processes()
    }
  }
}

void ChaosSchedule::apply_processes(
    const std::function<void(SiteId)>& kill) const {
  std::vector<const ChaosEvent*> kills;
  for (const ChaosEvent& event : events_) {
    if (event.kind == ChaosEventKind::kDaemonKill) kills.push_back(&event);
  }
  std::sort(kills.begin(), kills.end(),
            [](const ChaosEvent* a, const ChaosEvent* b) {
              return a->start < b->start;
            });
  for (const ChaosEvent* event : kills) kill(event->site);
}

bool ChaosSchedule::partitioned(SiteId a, SiteId b, TimePoint t) const {
  if (a == b) return false;
  for (const ChaosEvent& event : events_) {
    if (event.kind != ChaosEventKind::kPartition) continue;
    if (t < event.start || t >= event.start + event.length) continue;
    const bool split =
        (event.site == a && event.other_site == b) ||
        (event.site == b && event.other_site == a);
    if (split) return true;
  }
  return false;
}

bool ChaosSchedule::reachable(const VirtualTestbed& bed, SiteId observer,
                              HostId host, TimePoint t) const {
  if (!bed.is_alive(host, t)) return false;
  return !partitioned(observer, bed.site_of(host), t);
}

std::function<bool(HostId)> ChaosSchedule::liveness_probe(
    const VirtualTestbed& bed, SiteId observer) const {
  return [this, &bed, observer](HostId host) {
    return reachable(bed, observer, host, bed.live_time());
  };
}

std::string ChaosSchedule::partition_spec(double base_s) const {
  std::ostringstream out;
  bool first = true;
  for (const ChaosEvent& event : events_) {
    if (event.kind != ChaosEventKind::kPartition) continue;
    if (!first) out << ';';
    first = false;
    out.precision(17);
    out << event.site.value() << ',' << event.other_site.value() << ','
        << base_s + event.start << ',' << base_s + event.start + event.length;
  }
  return out.str();
}

ChaosSchedule ChaosSchedule::from_partition_spec(const std::string& spec) {
  ChaosSchedule schedule;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    unsigned a = 0;
    unsigned b = 0;
    double start = 0.0;
    double stop = 0.0;
    if (std::sscanf(item.c_str(), "%u,%u,%lf,%lf", &a, &b, &start, &stop) !=
            4 ||
        stop < start) {
      throw common::ParseError("malformed partition spec item: " + item);
    }
    ChaosEvent event;
    event.kind = ChaosEventKind::kPartition;
    event.site = SiteId(static_cast<std::uint32_t>(a));
    event.other_site = SiteId(static_cast<std::uint32_t>(b));
    event.start = start;
    event.length = stop - start;
    schedule.add(event);
  }
  return schedule;
}

std::string ChaosSchedule::summary() const {
  std::ostringstream out;
  for (const ChaosEvent& event : events_) {
    out << to_string(event.kind) << " t=[" << event.start << ","
        << event.start + event.length << ")";
    switch (event.kind) {
      case ChaosEventKind::kHostCrash:
      case ChaosEventKind::kDeadlineStorm:
        out << " host=" << event.host.value();
        if (event.pulses > 0) out << " pulses=" << event.pulses;
        break;
      case ChaosEventKind::kGrayHost:
        out << " host=" << event.host.value()
            << " extra_load=" << event.extra_load;
        break;
      case ChaosEventKind::kSiteOutage:
        out << " site=" << event.site.value();
        break;
      case ChaosEventKind::kPartition:
        out << " sites=" << event.site.value() << "<->"
            << event.other_site.value();
        break;
      case ChaosEventKind::kDaemonKill:
        out << " site=" << event.site.value();
        break;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace vdce::netsim
