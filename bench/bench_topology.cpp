// F1 (paper Figure 1): the multi-site VDCE topology.
//
// Brings up testbeds of growing scale, verifies every site's control
// plane is live, and reports bring-up cost and monitored state coverage
// — the "geographically distributed computation sites, each of which
// has one or more VDCE Servers" picture as a working artifact.
#include <chrono>
#include <iostream>

#include "bench/harness.hpp"
#include "runtime/site_stack.hpp"

int main() {
  using namespace vdce;
  using Clock = std::chrono::steady_clock;

  bench::banner("F1", "VDCE topology bring-up (paper Figure 1)");
  bench::header(
      "sites,groups_per_site,hosts_per_group,hosts,bringup_ms,"
      "monitored_hosts,wan_links");

  for (const std::size_t sites : {2u, 4u, 8u, 16u}) {
    netsim::RandomTestbedParams params;
    params.num_sites = sites;
    params.groups_per_site = 2;
    params.hosts_per_group = 4;

    const auto t0 = Clock::now();
    rt::LocalVdce v(netsim::make_random_testbed(params, 99));
    v.warm_up(10.0);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    // Every host's dynamic attributes were refreshed by its own site's
    // monitoring chain (each Site Manager maintains its own repository).
    std::size_t monitored = 0;
    for (std::size_t s = 0; s < v.sites.size(); ++s) {
      for (const auto& rec : v.sites[s].repository->resources().hosts_in_site(
               common::SiteId(static_cast<std::uint32_t>(s)))) {
        if (rec.dynamic_attrs.last_update > 0.0) ++monitored;
      }
    }
    std::size_t wan_links = 0;
    for (const auto a : v.testbed.sites()) {
      for (const auto b : v.testbed.sites()) {
        if (a < b && v.testbed.wan_link(a, b)) ++wan_links;
      }
    }
    std::cout << sites << ",2,4," << v.testbed.host_count() << "," << ms
              << "," << monitored << "," << wan_links << "\n";
  }

  std::cout << "\nshape check: monitored_hosts == hosts at every scale "
               "(the Resource Controller reaches every machine).\n";
  return 0;
}
