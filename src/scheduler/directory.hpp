// Site directory: how the local Application Scheduler reaches the rest
// of the VDCE.
//
// "VDCE provides distributed scheduling in a wide-area system, in which
//  each site consists of its own Application Scheduler running on the
//  VDCE server."  (Section 2.2.1)
//
// The Site Scheduler Algorithm needs three remote capabilities: the set
// of reachable sites with their WAN distances, a way to run the Host
// Selection Algorithm at a site (the paper multicasts the AFG and each
// site answers), and the inter-site transfer-time estimate.  The
// interface decouples the algorithm from the transport: the library
// ships the one repository-backed implementation every site answers
// from; the daemon module's RemoteSiteDirectory carries the same calls
// to a site daemon, which answers them from a one-site instance.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "afg/graph.hpp"
#include "predict/prediction_cache.hpp"
#include "predict/predictor.hpp"
#include "scheduler/host_selection.hpp"

namespace vdce::sched {

/// Access to the distributed scheduling fabric.
class SiteDirectory {
 public:
  virtual ~SiteDirectory() = default;

  /// All sites (the local one included).
  [[nodiscard]] virtual std::vector<SiteId> sites() const = 0;

  /// WAN distance between two sites (one-way latency, seconds); 0 for
  /// a == b.  Used by the k-nearest-site selection.
  [[nodiscard]] virtual Duration site_distance(SiteId a, SiteId b) const = 0;

  /// Estimated time to move `mb` megabytes between two sites; 0 for
  /// a == b.
  [[nodiscard]] virtual Duration transfer_time(SiteId a, SiteId b,
                                               double mb) const = 0;

  /// "Multicast the AFG" to a site: runs the Host Selection Algorithm
  /// there and returns the (machine, prediction) pairs.  `threads` is
  /// the scoring parallelism the answering site may use (1 = serial).
  /// Must be safe to call concurrently for different sites (the Site
  /// Scheduler fans the multicast out on the shared thread pool).
  [[nodiscard]] virtual HostSelectionMap host_selection(
      SiteId site, const afg::FlowGraph& graph, std::size_t threads = 1) = 0;

  /// Single-task re-placement request (the fault-tolerance path): runs
  /// host selection for `node` alone at `site`, skipping every host in
  /// `excluded`.  Must be safe to call concurrently with host_selection
  /// (a reschedule can race an unrelated application's placement).
  [[nodiscard]] virtual HostSelection host_reselection(
      SiteId site, const afg::TaskNode& node,
      const std::vector<HostId>& excluded) = 0;

  /// Base-processor execution time for unit input of a library task
  /// (the level computation's cost source).  Throws NotFoundError for
  /// an unknown task.
  [[nodiscard]] virtual Duration base_time(
      const std::string& library_task) const = 0;

  /// Estimated time to move `mb` megabytes between two specific hosts
  /// (0 on the same host; LAN within a site; WAN across sites).  Used
  /// by the queue-aware scheduler extension.
  [[nodiscard]] virtual Duration host_transfer_time(HostId from, HostId to,
                                                    double mb) const = 0;
};

/// Shared host-to-host transfer estimate from one repository's resource
/// and network records.
[[nodiscard]] Duration estimate_host_transfer(
    const repo::SiteRepository& repository, HostId from, HostId to,
    double mb);

/// Repository-backed directory: each registered site's Host Selection
/// over its repository and forecaster, with one PredictionCache per
/// site.  rt::LocalVdce holds one over every site, the site daemon one
/// over its own.
class RepositoryDirectory final : public SiteDirectory {
 public:
  /// Registers one site.  Both pointers must outlive the directory.
  void add_site(SiteId site, const repo::SiteRepository* repository,
                const predict::LoadForecaster* forecaster = nullptr);

  [[nodiscard]] std::vector<SiteId> sites() const override;
  [[nodiscard]] Duration site_distance(SiteId a, SiteId b) const override;
  [[nodiscard]] Duration transfer_time(SiteId a, SiteId b,
                                       double mb) const override;
  [[nodiscard]] HostSelectionMap host_selection(
      SiteId site, const afg::FlowGraph& graph,
      std::size_t threads = 1) override;
  [[nodiscard]] HostSelection host_reselection(
      SiteId site, const afg::TaskNode& node,
      const std::vector<HostId>& excluded) override;
  [[nodiscard]] Duration base_time(
      const std::string& library_task) const override;
  [[nodiscard]] Duration host_transfer_time(HostId from, HostId to,
                                            double mb) const override;

  /// The predictor bound to one site.
  [[nodiscard]] const predict::PerformancePredictor& predictor(
      SiteId site) const;

  /// The prediction cache bound to one site (for hit-rate reporting).
  [[nodiscard]] const predict::PredictionCache& prediction_cache(
      SiteId site) const;

 private:
  struct Entry {
    const repo::SiteRepository* repository;
    std::unique_ptr<predict::PredictionCache> cache;
    predict::PerformancePredictor predictor;
  };
  [[nodiscard]] const Entry& entry(SiteId site) const;

  std::map<SiteId, Entry> sites_;
};

}  // namespace vdce::sched
