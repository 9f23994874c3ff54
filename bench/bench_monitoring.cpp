// F6 (paper Figure 6): the Resource Controller.
//
//   (a) monitoring traffic: confidence-interval-filtered forwarding vs
//       push-everything (design decision D1), with a CI width sweep and
//       the induced staleness (repo view vs truth);
//   (b) failure-detection latency vs the echo period.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "bench/harness.hpp"
#include "runtime/site_stack.hpp"

namespace {

using namespace vdce;

void traffic_experiment() {
  bench::banner("F6a", "CI-filtered monitoring traffic (D1)");
  bench::header(
      "ci_z,reports,forwarded,reduction_pct,mean_staleness_abs_load");

  for (const double ci_z : {0.0, 0.5, 1.0, 1.96, 3.0}) {
    rt::GroupManagerConfig config;
    config.ci_filter = ci_z > 0.0;
    config.ci_z = ci_z > 0.0 ? ci_z : 1.96;

    rt::LocalVdce v(netsim::make_campus_testbed(33), config);
    // Run the control plane for 300 simulated seconds.
    v.warm_up(300.0);

    std::size_t reports = 0, forwarded = 0;
    for (const auto& site : v.sites) {
      reports += site.control->stats().reports_received;
      forwarded += site.control->stats().updates_forwarded;
    }

    // Staleness: |repo view - truth| across hosts at the end.
    double staleness = 0.0;
    std::size_t n = 0;
    for (std::size_t s = 0; s < v.sites.size(); ++s) {
      const auto site = common::SiteId(static_cast<std::uint32_t>(s));
      for (const auto& rec :
           v.sites[s].repository->resources().hosts_in_site(site)) {
        const double truth = v.testbed.true_load(rec.host, 300.0);
        staleness += std::abs(rec.dynamic_attrs.cpu_load - truth);
        ++n;
      }
    }

    std::cout << std::fixed << std::setprecision(2) << ci_z << ","
              << reports << "," << forwarded << ","
              << std::setprecision(1)
              << 100.0 * (1.0 - static_cast<double>(forwarded) /
                                    static_cast<double>(reports))
              << "," << std::setprecision(3) << staleness / n << "\n";
  }
  std::cout << "shape check: wider CIs cut forwarded updates sharply while "
               "staleness grows only mildly — the paper's rationale for "
               "the filter.\n";
}

void failure_detection_experiment() {
  bench::banner("F6b", "failure detection latency vs echo period");
  bench::header("echo_period_s,mean_detection_latency_s,detected");

  for (const double echo : {0.5, 1.0, 2.0, 5.0, 10.0}) {
    rt::GroupManagerConfig config;
    config.echo_period_s = echo;

    double latency_total = 0.0;
    int detected = 0;
    constexpr int kTrials = 6;
    for (int trial = 0; trial < kTrials; ++trial) {
      rt::LocalVdce v(netsim::make_campus_testbed(100 + trial), config);
      // Fail one host at a pseudo-random time in (20, 30).
      const auto hosts = v.testbed.all_hosts();
      const auto victim = hosts[trial % hosts.size()];
      const double fail_at = 20.0 + 10.0 * trial / kTrials;
      v.testbed.fail_host(victim, fail_at, 1e6);

      // Tick with a fine step so detection times are sharp.
      const auto site = v.testbed.site_of(victim);
      auto& repository = *v.sites[site.value()].repository;
      double detected_at = -1.0;
      for (double t = 0.25; t <= 60.0; t += 0.25) {
        v.tick(t);
        if (detected_at < 0.0 &&
            !repository.resources().get(victim).dynamic_attrs.alive) {
          detected_at = t;
          break;
        }
      }
      if (detected_at >= 0.0) {
        ++detected;
        latency_total += detected_at - fail_at;
      }
    }
    std::cout << std::fixed << std::setprecision(2) << echo << ","
              << (detected > 0 ? latency_total / detected : -1.0) << ","
              << detected << "/" << kTrials << "\n";
  }
  std::cout << "shape check: mean detection latency tracks ~echo_period/2 "
               "(plus tick quantisation); every failure is detected.\n";
}

}  // namespace

int main() {
  traffic_experiment();
  failure_detection_experiment();
  return 0;
}
