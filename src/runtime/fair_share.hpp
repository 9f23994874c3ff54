// Stride fair-share ready queue (DESIGN.md D15).
//
// The admission front door of PR 4 picked the next grant with an O(n)
// scan over every queued submission -- fine at 32 submitters,
// hopeless at the paper's "many users share the VDCE" scale.  This
// queue is the sublinear replacement:
//
//   * per-user FIFOs keyed by submission sequence number, with one
//     ordered (pass, head-seq) index: a grant is "take the lowest
//     (pass, seq)" in O(log users);
//   * the stride virtual clock renormalizes itself before double
//     precision can swallow low-weight pass increments (the 2^53
//     drift bug), and idle users whose pass has been overtaken by the
//     grant clock are evicted after every push and pop -- so a
//     returning user is either not behind the clock or forgotten and
//     re-joins at it;
//   * a (priority, seq) index supports the load-shedding tiers:
//     preempt-the-lowest-priority-youngest on queue overflow, and bulk
//     shedding below a priority cutoff.
//
// Stride semantics are exactly PR 4's: the queued submission whose
// user has the lowest pass wins, ties break on global submission
// order, and a grant advances the winner's pass by 1/weight.  New and
// returning users join at the current grant pass, never behind it.
//
// The queue is not thread-safe.  Its owner serializes every call; in
// AppSubmissionService that is the service lock, which also orders
// grants into one total order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace vdce::rt {

/// One queued submission inside the fair-share race.
struct FairShareEntry {
  common::AppId app;
  /// Global submission order (FIFO tie-break within and across users).
  std::uint64_t seq = 0;
  /// Admission priority tier (higher survives shedding longer).
  int priority = 0;
  /// Stride weight of the submission (> 0); the grant advances the
  /// user's pass by 1/weight.
  double weight = 1.0;
  /// Entries admitted straight into a free slot are not eligible for
  /// preemption or shedding (their admission already counted them as
  /// running work, not queue backlog).
  bool preemptible = true;
};

/// Point-in-time queue counters.
struct FairShareStats {
  std::size_t queued = 0;
  std::size_t users = 0;
  std::uint64_t renormalizations = 0;
  std::uint64_t shares_evicted = 0;
};

/// Stride scheduler over per-user FIFOs; the caller serializes calls.
class FairShareQueue {
 public:
  /// Once the grant clock reaches this value every pass is rebased
  /// against it, so pass increments as small as 1/max-weight never
  /// fall below double precision (the 2^53 drift bug).
  static constexpr double kRenormThreshold = 1e9;
  /// Bound on tracked users.  Idle users with the least outstanding
  /// stride debt are evicted first beyond it; users with queued work
  /// are never evicted.
  static constexpr std::size_t kMaxShares = 65536;

  /// Enqueues one submission for `user`.  First-seen and returning
  /// (previously idle) users join at the current grant pass -- a user
  /// who sat out while others raced can never return with a stale low
  /// pass and sweep every grant (the PR 8 starvation fix).
  void push(const std::string& user, FairShareEntry entry);

  /// Removes and returns the stride winner: lowest user pass, FIFO
  /// seq tie-break.  Advances the winner's pass by 1/weight and the
  /// grant clock to the winner's pre-advance pass.  Empty queue
  /// returns nullopt.
  [[nodiscard]] std::optional<FairShareEntry> pop();

  /// Load-shedding tier 2: removes and returns the youngest entry of
  /// the lowest priority tier strictly below `priority`, or nullopt
  /// when nothing preemptible qualifies.  Does not advance the grant
  /// clock (the victim never ran).
  [[nodiscard]] std::optional<FairShareEntry> preempt_below(int priority);

  /// Load-shedding tier 3: removes every preemptible entry with
  /// priority strictly below `priority` (ascending seq order).
  [[nodiscard]] std::vector<FairShareEntry> shed_below(int priority);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t user_count() const { return shares_.size(); }
  /// The stride virtual clock: the pass of the latest grant.
  [[nodiscard]] double grant_pass() const { return grant_pass_; }
  [[nodiscard]] FairShareStats stats() const;

  /// Test hook: jumps the grant clock (e.g. next to 2^53) so the
  /// precision-drift regression test does not need 10^15 real grants,
  /// and sweeps the idle users the jump overtook, as a grant would.
  void set_grant_pass_for_test(double pass) {
    grant_pass_ = pass;
    sweep_idle();
  }

 private:
  /// One user's stride state: the pass plus a seq-ordered FIFO.
  struct Share {
    double pass = 0.0;
    std::map<std::uint64_t, FairShareEntry> fifo;
  };

  /// Drops idle users the grant clock has overtaken (a return then
  /// joins at the clock) and, over kMaxShares, the least-indebted idle
  /// users.
  void sweep_idle();
  /// Files `user` under its current pass: in order_ by its head seq
  /// when it has queued work, else in idle_.
  void file_share(const std::string& user, const Share& share);
  /// Removes the queued entry `seq` of `user` from every index.
  FairShareEntry remove_entry(const std::string& user, std::uint64_t seq);
  /// Subtracts the grant clock from every pass once it reaches
  /// kRenormThreshold.
  void maybe_renormalize();

  std::unordered_map<std::string, Share> shares_;
  /// (pass, head seq) -> user, for users with queued work.  Its
  /// begin() is the stride winner.
  std::map<std::pair<double, std::uint64_t>, std::string> order_;
  /// (priority, seq) -> user, one per preemptible queued entry.
  std::map<std::pair<int, std::uint64_t>, std::string> prio_;
  /// (pass, user) for idle users (empty FIFO), ordered by how little
  /// stride debt they still owe -- the eviction order.
  std::set<std::pair<double, std::string>> idle_;
  double grant_pass_ = 0.0;
  std::size_t size_ = 0;
  std::uint64_t renormalizations_ = 0;
  std::uint64_t shares_evicted_ = 0;
};

}  // namespace vdce::rt
