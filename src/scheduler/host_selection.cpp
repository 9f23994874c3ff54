#include "scheduler/host_selection.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "predict/prediction_cache.hpp"
#include "scheduler/eligibility.hpp"

namespace vdce::sched {

namespace {

// Minimum candidate hosts per parallel chunk: below this, scoring one
// host is far cheaper than handing the chunk to a pool worker.
constexpr std::size_t kScoringGrain = 16;

}  // namespace

HostSelectionMap run_host_selection(
    const afg::FlowGraph& graph, common::SiteId site,
    const predict::PerformancePredictor& predictor, std::size_t threads) {
  const repo::SiteRepository& repository = predictor.repository();
  HostSelectionMap out;
  out.reserve(graph.task_count());

  // Prediction-cache provenance: the counter delta across this Host
  // Selection round says how many of its Predict() evaluations were
  // served from the memo table versus computed fresh.
  common::ScopedSpan hs_span("host_selection", "scheduler");
  predict::PredictionCacheStats cache_before;
  if (hs_span.active()) {
    hs_span.rename("host_selection:site" + std::to_string(site.value()));
    hs_span.arg("site", site.value());
    hs_span.arg("tasks", graph.task_count());
    if (predictor.cache() != nullptr) {
      cache_before = predictor.cache()->stats();
    }
  }

  // One resource-database snapshot for the whole graph (already sorted
  // by host id) instead of a locked full-table walk per task.
  const std::vector<repo::HostRecord> site_hosts =
      site.valid() ? repository.resources().hosts_in_site(site)
                   : repository.resources().all_hosts();

  // Per-graph prefetch of each distinct library task's record and
  // weight table: the scoring loop below stops paying string-keyed
  // repository lookups per (task, host) pair.
  std::unordered_map<std::string, predict::PreparedTask> prepared;

  const std::size_t helpers = threads > 1 ? threads - 1 : 0;

  std::vector<const repo::HostRecord*> candidates;
  candidates.reserve(site_hosts.size());
  for (const afg::TaskNode& node : graph.tasks()) {
    candidates.clear();
    for (const repo::HostRecord& host : site_hosts) {
      if (host_matches(host, node, repository)) candidates.push_back(&host);
    }
    HostSelection selection;

    if (!candidates.empty()) {
      auto [it, inserted] = prepared.try_emplace(node.library_task);
      if (inserted) it->second = predictor.prepare(node.library_task);
      const predict::PreparedTask& task = it->second;

      // Evaluate Predict(task_i, R) for every eligible resource.  Each
      // result is written by index, so the scored vector is identical
      // to the serial loop's regardless of execution order.
      std::vector<std::pair<Duration, HostId>> scored(candidates.size());
      common::ThreadPool::shared_parallel_for(
          0, candidates.size(), kScoringGrain,
          [&](std::size_t i) {
            scored[i] = {
                predictor
                    .predict_detailed(task, node.props.input_size,
                                      *candidates[i])
                    .time_s,
                candidates[i]->host};
          },
          helpers);
      std::sort(scored.begin(), scored.end());

      const unsigned want = node.props.mode == afg::ComputeMode::kParallel
                                ? node.props.num_processors
                                : 1u;
      if (scored.size() >= want) {
        selection.hosts.reserve(want);
        for (unsigned i = 0; i < want; ++i) {
          selection.hosts.push_back(scored[i].second);
        }
        // Sequential: the best host's prediction.  Parallel: the slowest
        // selected machine bounds the per-processor share.
        selection.predicted_s =
            scored[want - 1].first / static_cast<double>(want);
      }
      // else: the site cannot offer enough machines -> infeasible.
      selection.scored = std::move(scored);
    }
    out.emplace(node.id, std::move(selection));
  }
  static common::Counter& m_rounds =
      common::MetricsRegistry::global().counter(
          "scheduler.host_selection_rounds");
  m_rounds.add(1);
  // Cache provenance is a tracing feature: stats() quiesces every
  // shard, which would serialise the concurrent multicast rounds, so
  // the snapshot (and the hit-rate gauge it feeds) is only taken when a
  // recorder is installed.
  if (hs_span.active() && predictor.cache() != nullptr) {
    const predict::PredictionCacheStats after = predictor.cache()->stats();
    hs_span.arg("cache_hits", after.hits - cache_before.hits);
    hs_span.arg("cache_misses", after.misses - cache_before.misses);
    common::MetricsRegistry::global()
        .gauge("scheduler.cache_hit_rate")
        .set(after.lookups > 0 ? static_cast<double>(after.hits) /
                                     static_cast<double>(after.lookups)
                               : 0.0);
  }
  return out;
}

HostSelection run_host_reselection(
    const afg::TaskNode& node, common::SiteId site,
    const predict::PerformancePredictor& predictor,
    const std::vector<common::HostId>& excluded) {
  const repo::SiteRepository& repository = predictor.repository();
  const std::vector<repo::HostRecord> site_hosts =
      site.valid() ? repository.resources().hosts_in_site(site)
                   : repository.resources().all_hosts();

  const auto is_excluded = [&](common::HostId host) {
    return std::find(excluded.begin(), excluded.end(), host) !=
           excluded.end();
  };

  HostSelection selection;
  std::vector<std::pair<Duration, HostId>> scored;
  scored.reserve(site_hosts.size());
  std::optional<predict::PreparedTask> prepared;
  for (const repo::HostRecord& host : site_hosts) {
    if (is_excluded(host.host)) continue;
    if (!host_matches(host, node, repository)) continue;
    if (!prepared) prepared = predictor.prepare(node.library_task);
    scored.emplace_back(
        predictor.predict_detailed(*prepared, node.props.input_size, host)
            .time_s,
        host.host);
  }
  std::sort(scored.begin(), scored.end());

  const unsigned want = node.props.mode == afg::ComputeMode::kParallel
                            ? node.props.num_processors
                            : 1u;
  if (scored.size() >= want) {
    selection.hosts.reserve(want);
    for (unsigned i = 0; i < want; ++i) {
      selection.hosts.push_back(scored[i].second);
    }
    selection.predicted_s = scored[want - 1].first / static_cast<double>(want);
  }
  selection.scored = std::move(scored);
  return selection;
}

}  // namespace vdce::sched
