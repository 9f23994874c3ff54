// vdce_site_daemon: one site's control plane as an OS process (D14).
//
// Launched by rt::Watchdog (or by hand):
//   vdce_site_daemon --site 1 --seed 13
//       --heartbeat-port 40123 --heartbeat-period 0.05 --incarnation 1
//       [--gossip 1] [--gossip-period 0.05]
//       [--partition-spec "a,b,start,end;..."]
//
// Without --heartbeat-port the daemon runs unsupervised and prints its
// RPC (and gossip) port on stdout (manual experimentation).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/ids.hpp"
#include "daemon/site_daemon.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --site N [--seed S] [--heartbeat-port P]\n"
               "          [--heartbeat-period SECONDS] [--incarnation K]\n"
               "          [--gossip 0|1] [--gossip-period SECONDS]\n"
               "          [--partition-spec SPEC]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  vdce::daemon::SiteDaemonConfig config;
  config.site = vdce::common::SiteId::invalid();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--site") {
      config.site =
          vdce::common::SiteId(static_cast<std::uint32_t>(std::atoi(next())));
    } else if (arg == "--seed") {
      config.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--heartbeat-port") {
      config.heartbeat_port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--heartbeat-period") {
      config.heartbeat_period_s = std::atof(next());
    } else if (arg == "--incarnation") {
      config.incarnation = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--gossip") {
      config.gossip = std::atoi(next()) != 0;
    } else if (arg == "--gossip-period") {
      config.gossip_period_s = std::atof(next());
    } else if (arg == "--partition-spec") {
      config.partition_spec = next();
    } else {
      usage(argv[0]);
    }
  }
  if (config.site == vdce::common::SiteId::invalid()) usage(argv[0]);

  try {
    vdce::daemon::SiteDaemon daemon(config);
    if (config.heartbeat_port == 0) {
      std::printf("rpc_port=%u\n", daemon.rpc_port());
      if (config.gossip) {
        std::printf("gossip_port=%u\n", daemon.gossip_port());
      }
      std::fflush(stdout);
    }
    return daemon.serve();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vdce_site_daemon: fatal: %s\n", e.what());
    return 1;
  }
}
