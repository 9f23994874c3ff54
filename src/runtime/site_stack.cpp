#include "runtime/site_stack.hpp"

#include "tasklib/registry.hpp"

namespace vdce::rt {

SiteStack build_site_stack(netsim::VirtualTestbed& testbed, SiteId site,
                           GroupManagerConfig group_config) {
  SiteStack stack;
  stack.repository = std::make_unique<repo::SiteRepository>(site);
  tasklib::builtin_registry().install_defaults(stack.repository->tasks());
  testbed.populate_repository(*stack.repository, site);
  stack.repository->users().add_user("hpdc", "nynet", 1, "wan");
  stack.forecaster = std::make_unique<predict::LoadForecaster>();
  stack.manager = std::make_unique<SiteManager>(site, *stack.repository,
                                                *stack.forecaster);
  stack.control = std::make_unique<ControlManager>(testbed, site,
                                                   *stack.manager,
                                                   group_config);
  return stack;
}

LocalVdce::LocalVdce(const netsim::TestbedConfig& config,
                     GroupManagerConfig group_config)
    : testbed(config) {
  for (const SiteId site : testbed.sites()) {
    const SiteStack& stack =
        sites.emplace_back(build_site_stack(testbed, site, group_config));
    directory.add_site(site, stack.repository.get(), stack.forecaster.get());
  }
}

void LocalVdce::tick(TimePoint now) {
  for (SiteStack& stack : sites) stack.control->tick(now);
}

void LocalVdce::warm_up(TimePoint until) {
  for (TimePoint t = 1.0; t <= until; t += 1.0) tick(t);
}

}  // namespace vdce::rt
