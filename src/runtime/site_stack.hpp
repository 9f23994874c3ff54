// One site's server stack, and every site's stack in one process.
//
// The paper runs the same server software at every VDCE site: a Site
// Repository with its four databases, a Site Manager, and a Control
// Manager with a Group Manager per host group and a Monitor per host
// (Section 2, Figure 6).  build_site_stack is the one recipe for that
// stack: the site daemon, the in-process deployments, the examples,
// the benches and the test fixtures all call it, so a daemon-mode run
// and an in-process run start from the same repository state by
// construction.
#pragma once

#include <memory>
#include <vector>

#include "netsim/testbed.hpp"
#include "predict/forecaster.hpp"
#include "repository/repository.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/site_manager.hpp"
#include "scheduler/directory.hpp"

namespace vdce::rt {

/// One site's server stack.  Members are declared in build order, so
/// they are destroyed dependents first.
struct SiteStack {
  std::unique_ptr<repo::SiteRepository> repository;
  std::unique_ptr<predict::LoadForecaster> forecaster;
  std::unique_ptr<SiteManager> manager;
  std::unique_ptr<ControlManager> control;
};

/// Builds `site`'s stack over `testbed` (which must outlive it): a
/// repository holding the builtin task library, the testbed's records
/// for the site and the `hpdc`/`nynet` account, a load forecaster, the
/// Site Manager, and the Control Manager with one Group Manager per
/// group of the site.
[[nodiscard]] SiteStack build_site_stack(netsim::VirtualTestbed& testbed,
                                         SiteId site,
                                         GroupManagerConfig group_config = {});

/// Every site of a testbed in this address space: the testbed, one
/// stack per site (in testbed site order) and the directory over
/// them.
class LocalVdce {
 public:
  explicit LocalVdce(const netsim::TestbedConfig& config,
                     GroupManagerConfig group_config = {});

  // The stacks point into the testbed and the directory into the
  // stacks.
  LocalVdce(const LocalVdce&) = delete;
  LocalVdce& operator=(const LocalVdce&) = delete;

  /// Ticks every site's Control Manager at `now`.
  void tick(TimePoint now);

  /// Warms the monitoring fabric: tick(t) for t = 1, 2, ..., until.
  void warm_up(TimePoint until);

  netsim::VirtualTestbed testbed;
  std::vector<SiteStack> sites;
  /// Every site's Host Selection over its repository and forecaster,
  /// one PredictionCache per site.
  sched::RepositoryDirectory directory;
};

}  // namespace vdce::rt
