// Admission front-door tests (DESIGN.md D15): the stride fair-share
// queue (grant order, fairness properties, returning users joining at
// the grant clock, pass renormalization, idle-share eviction, a
// brute-force reference), batched submission, the load-shedding tiers
// (priority preemption, bulk shed), and terminal-record retirement.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "netsim/testbed.hpp"
#include "runtime/fair_share.hpp"
#include "runtime/submission.hpp"
#include "scheduler/qos.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {
namespace {

using common::AppId;
using common::SiteId;

/// Jain's fairness index over per-user grant counts: (sum x)^2 /
/// (n * sum x^2); 1.0 is perfectly even, 1/n is maximally skewed.
[[nodiscard]] double jain_index(const std::vector<std::size_t>& grants) {
  double sum = 0.0, sum_sq = 0.0;
  for (const std::size_t g : grants) {
    const double x = static_cast<double>(g);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(grants.size()) * sum_sq);
}

[[nodiscard]] FairShareEntry entry_of(std::uint64_t seq, int priority = 0,
                                      double weight = 1.0,
                                      bool preemptible = true) {
  FairShareEntry entry;
  entry.app = AppId(static_cast<std::uint32_t>(seq));
  entry.seq = seq;
  entry.priority = priority;
  entry.weight = weight;
  entry.preemptible = preemptible;
  return entry;
}

class AdmissionEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    testbed_ = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(13));
    repository_ = std::make_unique<repo::SiteRepository>(SiteId(0));
    tasklib::builtin_registry().install_defaults(repository_->tasks());
    testbed_->populate_repository(*repository_, SiteId(0));
    directory_.add_site(SiteId(0), repository_.get());
  }

  [[nodiscard]] static afg::FlowGraph tiny_graph(const std::string& name) {
    afg::FlowGraph g(name);
    const auto src = g.add_task("synth_source", "src");
    const auto sink = g.add_task("synth_sink", "sink");
    g.add_link(src, sink, 0.01);
    return g;
  }

  [[nodiscard]] static SubmissionRequest request_for(
      afg::FlowGraph graph, std::string user, double weight = 1.0,
      int priority = 0, double deadline_s = 1e9) {
    SubmissionRequest request;
    request.graph = std::move(graph);
    request.qos.deadline_s = deadline_s;
    request.user = std::move(user);
    request.weight = weight;
    request.priority = priority;
    return request;
  }

  std::unique_ptr<netsim::VirtualTestbed> testbed_;
  std::unique_ptr<repo::SiteRepository> repository_;
  sched::RepositoryDirectory directory_;
};

// ------------------------------------------------ queue: fairness laws

TEST(FairShareQueue, EqualWeightsAreNearPerfectlyFair) {
  // 64 equal-weight users with deep backlogs; 10k grants must split
  // almost exactly evenly (stride scheduling is deterministic, so the
  // index should be essentially 1).
  constexpr std::size_t kUsers = 64;
  constexpr std::size_t kPerUser = 200;
  constexpr std::size_t kGrants = 10000;
  FairShareQueue queue;
  std::uint64_t seq = 1;
  for (std::size_t e = 0; e < kPerUser; ++e) {
    for (std::size_t u = 0; u < kUsers; ++u) {
      queue.push("user" + std::to_string(u), entry_of(seq++));
    }
  }

  std::map<std::uint32_t, std::size_t> by_app_user;
  std::vector<std::size_t> grants(kUsers, 0);
  for (std::size_t g = 0; g < kGrants; ++g) {
    const auto entry = queue.pop();
    ASSERT_TRUE(entry.has_value());
    // Recover the user from the round-robin push order.
    grants[(entry->seq - 1) % kUsers]++;
  }
  const double jain = jain_index(grants);
  EXPECT_GE(jain, 0.95);
  // Stronger than the property bound: stride keeps every user within
  // one grant of the ideal share.
  for (const std::size_t g : grants) {
    EXPECT_NEAR(static_cast<double>(g),
                static_cast<double>(kGrants) / kUsers, 1.0);
  }
}

TEST(FairShareQueue, WeightedUsersReceiveProportionalGrants) {
  // Weights 1:2:4 with deep backlogs; over 700 grants each user's count
  // must sit within 5% of its weighted share.
  const std::vector<double> weights = {1.0, 2.0, 4.0};
  constexpr std::size_t kPerUser = 500;
  constexpr std::size_t kGrants = 700;
  FairShareQueue queue;
  std::uint64_t seq = 1;
  for (std::size_t e = 0; e < kPerUser; ++e) {
    for (std::size_t u = 0; u < weights.size(); ++u) {
      queue.push("w" + std::to_string(u),
                 entry_of(seq++, 0, weights[u]));
    }
  }

  std::vector<std::size_t> grants(weights.size(), 0);
  for (std::size_t g = 0; g < kGrants; ++g) {
    const auto entry = queue.pop();
    ASSERT_TRUE(entry.has_value());
    grants[(entry->seq - 1) % weights.size()]++;
  }
  const double total_weight = 7.0;
  for (std::size_t u = 0; u < weights.size(); ++u) {
    const double expected = kGrants * weights[u] / total_weight;
    EXPECT_NEAR(static_cast<double>(grants[u]), expected,
                0.05 * expected)
        << "user " << u;
  }
}

// ------------------------------------------ queue: returning users

TEST(FairShareQueue, ReturningUserIsClampedToGrantClock) {
  // The PR 8 starvation fix at queue level: bob races alone for a
  // while, then alice returns.  She may not bank the grants she did not
  // contend for: the idle sweep after each of bob's grants forgets her
  // once the clock overtakes her pass, so she re-joins at the clock.
  FairShareQueue queue;
  queue.push("alice", entry_of(1));
  queue.push("bob", entry_of(2));
  EXPECT_EQ(queue.pop()->seq, 1u);  // tie at 0, alice's seq is lower
  EXPECT_EQ(queue.pop()->seq, 2u);
  // Bob alone: six grants walk the clock to 6.
  for (std::uint64_t s = 3; s <= 8; ++s) queue.push("bob", entry_of(s));
  for (std::uint64_t s = 3; s <= 8; ++s) EXPECT_EQ(queue.pop()->seq, s);
  EXPECT_DOUBLE_EQ(queue.grant_pass(), 6.0);

  // Alice returns (weight 2, stride 0.5) against bob (weight 1).  Swept
  // out, she re-joins at 6 and the race interleaves 2:1; with the seed
  // logic she would keep pass 1.0 and sweep all four first.
  for (std::uint64_t s = 9; s <= 12; ++s) {
    queue.push("alice", entry_of(s, 0, 2.0));
  }
  for (std::uint64_t s = 13; s <= 16; ++s) queue.push("bob", entry_of(s));
  std::vector<std::uint64_t> order;
  while (const auto entry = queue.pop()) order.push_back(entry->seq);
  const std::vector<std::uint64_t> expected = {9, 10, 11, 13,
                                               12, 14, 15, 16};
  EXPECT_EQ(order, expected);
}

TEST_F(AdmissionEnv, ReturningUserCannotSweepGrantsAfterAbsence) {
  // Service-level regression for the returning-user stride burst: the
  // grant order after alice's absence must interleave, not hand alice
  // a banked backlog of wins.  The queue's idle sweep forgets her while
  // bob races alone, so she re-joins at the grant clock.
  AppSubmissionConfig config;
  config.slots = 1;
  config.start_paused = true;
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry(), config);

  // Phase 1: one app each; alice (weight 2) and bob (weight 1) tie at
  // pass 0, the clock stays 0.
  (void)service.submit(request_for(tiny_graph("p1a"), "alice", 2.0));
  (void)service.submit(request_for(tiny_graph("p1b"), "bob", 1.0));
  service.resume();
  service.drain();

  // Phase 2: bob races alone for six grants; the clock walks to 6
  // while alice sits out.
  service.pause();
  for (int i = 0; i < 6; ++i) {
    (void)service.submit(
        request_for(tiny_graph("p2b" + std::to_string(i)), "bob", 1.0));
  }
  service.resume();
  service.drain();

  // Phase 3: both return with four apps each.  Re-joining at the clock,
  // alice interleaves 2:1 with bob; with the seed logic her stale pass
  // 0.5 would win all four grants before bob got one.
  service.pause();
  std::vector<AppId> alice, bob;
  for (int i = 0; i < 4; ++i) {
    alice.push_back(service.submit(
        request_for(tiny_graph("p3a" + std::to_string(i)), "alice", 2.0)));
  }
  for (int i = 0; i < 4; ++i) {
    bob.push_back(service.submit(
        request_for(tiny_graph("p3b" + std::to_string(i)), "bob", 1.0)));
  }
  service.resume();
  service.drain();

  std::map<std::size_t, std::string> by_grant;
  for (int i = 0; i < 4; ++i) {
    by_grant[service.status(alice[i]).grant_index] =
        "A" + std::to_string(i + 1);
    by_grant[service.status(bob[i]).grant_index] =
        "B" + std::to_string(i + 1);
  }
  std::vector<std::string> order;
  for (const auto& [grant, label] : by_grant) order.push_back(label);
  const std::vector<std::string> expected = {"A1", "A2", "A3", "B1",
                                             "A4", "B2", "B3", "B4"};
  EXPECT_EQ(order, expected);
}

// ------------------------------------------- queue: renormalization

TEST(FairShareQueue, RenormalizationSurvivesExtremeWeightRatios) {
  // Long-horizon precision: at a grant clock near 2^53 a heavy user's
  // stride of 1e-6 is smaller than the float spacing, so without
  // renormalization the pass would silently stop advancing and the
  // weighted race would collapse into FIFO.  The clock crossing the
  // threshold must renormalize every pass and keep the 1e6:1 ratio
  // effective.
  FairShareQueue queue;  // renorm_threshold = 1e9
  queue.set_grant_pass_for_test(9.1e15);  // past 2^53

  for (std::uint64_t s = 1; s <= 100; ++s) {
    queue.push("light", entry_of(s, 0, 1.0));
  }
  for (std::uint64_t s = 101; s <= 200; ++s) {
    queue.push("heavy", entry_of(s, 0, 1e6));
  }

  std::size_t heavy_done_at = 0;
  for (std::size_t pos = 1; pos <= 200; ++pos) {
    const auto entry = queue.pop();
    ASSERT_TRUE(entry.has_value());
    if (entry->seq > 100) heavy_done_at = pos;
  }
  // The first pop crosses the threshold and renormalizes; from then on
  // the heavy user's 1e-6 strides land, so its entire backlog drains
  // within a handful of light grants.  (Un-renormalized, heavy_done_at
  // would be pinned near 200 by the swallowed increments.)
  EXPECT_GE(queue.stats().renormalizations, 1u);
  EXPECT_LT(queue.grant_pass(), 1e9);
  EXPECT_LE(heavy_done_at, 110u);
}

TEST(FairShareQueue, RenormalizationPreservesRelativeOrder) {
  // Renormalizing must not reorder users: relative pass distances are
  // preserved (modulo the clamp at zero).
  FairShareQueue queue;
  // Walk the clock past the threshold with a throwaway user, starting
  // just below it.
  queue.set_grant_pass_for_test(FairShareQueue::kRenormThreshold - 6.0);
  for (std::uint64_t s = 1; s <= 12; ++s) queue.push("walker", entry_of(s));
  for (std::uint64_t s = 1; s <= 12; ++s) (void)queue.pop();
  EXPECT_GE(queue.stats().renormalizations, 1u);

  // Post-renorm, a fresh weighted race behaves exactly as from zero.
  for (std::uint64_t s = 20; s < 24; ++s) {
    queue.push("fast", entry_of(s, 0, 2.0));
  }
  for (std::uint64_t s = 30; s < 34; ++s) {
    queue.push("slow", entry_of(s, 0, 1.0));
  }
  std::vector<std::uint64_t> order;
  while (const auto entry = queue.pop()) order.push_back(entry->seq);
  const std::vector<std::uint64_t> expected = {20, 30, 21, 22,
                                               31, 23, 32, 33};
  EXPECT_EQ(order, expected);
}

// ---------------------------------------- queue: idle-share eviction

TEST(FairShareQueue, IdleSharesAreEvictedUnderCapAndOvertake) {
  FairShareQueue queue;

  // kMaxShares + 10 one-shot users: each goes idle after its single
  // grant.  The cap must evict the least-indebted idle shares; active
  // users are never candidates.
  const std::uint64_t users = FairShareQueue::kMaxShares + 10;
  for (std::uint64_t s = 1; s <= users; ++s) {
    queue.push("once" + std::to_string(s), entry_of(s));
    (void)queue.pop();
  }
  EXPECT_LE(queue.user_count(), FairShareQueue::kMaxShares);
  EXPECT_GE(queue.stats().shares_evicted, 10u);

  // Overtake eviction: advance the clock past the idle users' passes
  // with a busy user; the sweep drops every overtaken idle share, so a
  // returning one re-joins at the clock.
  for (std::uint64_t s = users + 1; s <= users + 6; ++s) {
    queue.push("busy", entry_of(s));
  }
  for (int i = 0; i < 6; ++i) (void)queue.pop();
  EXPECT_DOUBLE_EQ(queue.grant_pass(), 5.0);
  EXPECT_LE(queue.user_count(), 1u);  // only "busy" may survive
  EXPECT_EQ(queue.size(), 0u);
}

// ------------------------------------ queue: brute-force reference

/// The stride rules with nothing but a flat vector and a pass map: a
/// user with nothing queued joins at max(stored pass, clock); a grant
/// takes the lowest (pass, head seq), moves the clock to the winner's
/// pass and advances that pass by 1/weight; a clock at or past 1e9
/// after a grant rebases every pass against it.
class ReferenceStrideQueue {
 public:
  void push(const std::string& user, const FairShareEntry& entry) {
    if (!head_seq(user)) {
      const auto it = pass_.find(user);
      pass_[user] = it == pass_.end() ? clock_ : std::max(it->second, clock_);
    }
    queued_.emplace_back(user, entry);
  }

  std::optional<FairShareEntry> pop() {
    std::optional<std::size_t> best;
    std::pair<double, std::uint64_t> best_key;
    for (std::size_t i = 0; i < queued_.size(); ++i) {
      const auto& [user, entry] = queued_[i];
      if (entry.seq != head_seq(user)) continue;
      const std::pair<double, std::uint64_t> key{pass_.at(user), entry.seq};
      if (!best || key < best_key) {
        best = i;
        best_key = key;
      }
    }
    if (!best) return std::nullopt;
    const auto [user, entry] = take(*best);
    clock_ = pass_.at(user);
    pass_[user] += 1.0 / std::max(entry.weight, 1e-9);
    if (clock_ >= 1e9) {
      for (auto& [name, pass] : pass_) pass = std::max(0.0, pass - clock_);
      clock_ = 0.0;
      ++renormalizations_;
    }
    return entry;
  }

  std::optional<FairShareEntry> preempt_below(int priority) {
    std::optional<std::size_t> victim;
    for (std::size_t i = 0; i < queued_.size(); ++i) {
      const FairShareEntry& e = queued_[i].second;
      if (!e.preemptible || e.priority >= priority) continue;
      if (!victim) {
        victim = i;
        continue;
      }
      const FairShareEntry& v = queued_[*victim].second;
      if (e.priority < v.priority ||
          (e.priority == v.priority && e.seq > v.seq)) {
        victim = i;
      }
    }
    if (!victim) return std::nullopt;
    return take(*victim).second;
  }

  std::vector<FairShareEntry> shed_below(int priority) {
    std::vector<FairShareEntry> shed;
    for (std::size_t i = 0; i < queued_.size();) {
      const FairShareEntry& e = queued_[i].second;
      if (e.preemptible && e.priority < priority) {
        shed.push_back(take(i).second);
      } else {
        ++i;
      }
    }
    std::sort(shed.begin(), shed.end(),
              [](const FairShareEntry& a, const FairShareEntry& b) {
                return a.seq < b.seq;
              });
    return shed;
  }

  void set_clock(double pass) { clock_ = pass; }
  [[nodiscard]] double clock() const { return clock_; }
  [[nodiscard]] std::size_t size() const { return queued_.size(); }
  [[nodiscard]] std::size_t renormalizations() const {
    return renormalizations_;
  }

 private:
  [[nodiscard]] std::optional<std::uint64_t> head_seq(
      const std::string& user) const {
    std::optional<std::uint64_t> head;
    for (const auto& [name, entry] : queued_) {
      if (name == user && (!head || entry.seq < *head)) head = entry.seq;
    }
    return head;
  }

  std::pair<std::string, FairShareEntry> take(std::size_t i) {
    auto out = queued_[i];
    queued_.erase(queued_.begin() + static_cast<std::ptrdiff_t>(i));
    return out;
  }

  std::vector<std::pair<std::string, FairShareEntry>> queued_;
  std::map<std::string, double> pass_;
  double clock_ = 0.0;
  std::size_t renormalizations_ = 0;
};

void expect_same_entry(const std::optional<FairShareEntry>& got,
                       const std::optional<FairShareEntry>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;
  EXPECT_EQ(got->app, want->app);
  EXPECT_EQ(got->seq, want->seq);
  EXPECT_EQ(got->priority, want->priority);
  EXPECT_EQ(got->weight, want->weight);
  EXPECT_EQ(got->preemptible, want->preemptible);
}

TEST(FairShareQueue, MatchesBruteForceReferenceOnSeededSequences) {
  // 200 seeded mixes of push, pop, preempt_below and shed_below; every
  // returned entry, the size and the grant clock must match the
  // reference after every operation.  Each sequence also drains the
  // queue once and jumps the clock past the renormalization threshold,
  // so the next grant rebases every pass.
  constexpr std::size_t kOps = 400;
  const std::vector<double> weights = {0.5, 1.0, 2.0, 3.0};
  std::size_t renormalizations = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    FairShareQueue queue;
    ReferenceStrideQueue reference;
    const std::uint64_t users = 2 + rng.uniform_int(10);
    const std::size_t jump_at = rng.uniform_int(kOps);
    std::uint64_t seq = 1;
    for (std::size_t op = 0; op < kOps; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      if (op == jump_at) {
        // Drained first, so every later arrival joins the jumped clock.
        while (const auto want = reference.pop()) {
          expect_same_entry(queue.pop(), want);
        }
        ASSERT_FALSE(queue.pop().has_value());
        const double jump = 1e9 * (1.0 + rng.uniform());
        queue.set_grant_pass_for_test(jump);
        reference.set_clock(jump);
      }
      const double dice = rng.uniform();
      if (dice < 0.5) {
        const std::string user = "u" + std::to_string(rng.uniform_int(users));
        const FairShareEntry entry = entry_of(
            seq++, static_cast<int>(rng.uniform_int(4)),
            weights[rng.uniform_int(weights.size())], rng.bernoulli(0.9));
        queue.push(user, entry);
        reference.push(user, entry);
      } else if (dice < 0.85) {
        expect_same_entry(queue.pop(), reference.pop());
      } else if (dice < 0.95) {
        const int below = static_cast<int>(rng.uniform_int(5));
        expect_same_entry(queue.preempt_below(below),
                          reference.preempt_below(below));
      } else {
        const int below = static_cast<int>(rng.uniform_int(3));
        const auto got = queue.shed_below(below);
        const auto want = reference.shed_below(below);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          expect_same_entry(got[i], want[i]);
        }
      }
      ASSERT_EQ(queue.size(), reference.size());
      ASSERT_EQ(queue.grant_pass(), reference.clock());
    }
    renormalizations += reference.renormalizations();
  }
  // The jumps really crossed the threshold on a later grant.
  EXPECT_GE(renormalizations, 100u);
}

// ----------------------------------------------- service: shedding

TEST_F(AdmissionEnv, PriorityPreemptsYoungestOfLowestQueuedTier) {
  AppSubmissionConfig config;
  config.slots = 1;
  config.start_paused = true;
  config.max_queue = 2;
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry(), config);

  const AppId low_old =
      service.submit(request_for(tiny_graph("low_old"), "u0", 1.0, 0));
  const AppId low_young =
      service.submit(request_for(tiny_graph("low_young"), "u1", 1.0, 0));
  ASSERT_EQ(service.stats().queue_depth, 2u);

  // Tier 1 arrival at a full queue: the youngest tier-0 entry loses.
  const AppId mid =
      service.submit(request_for(tiny_graph("mid"), "u2", 1.0, 1));
  const auto victim = service.status(low_young);
  EXPECT_EQ(victim.state, SubmissionState::kRejected);
  EXPECT_NE(victim.error.find("preempted"), std::string::npos);
  EXPECT_EQ(service.status(mid).state, SubmissionState::kQueued);
  EXPECT_EQ(service.stats().preempted, 1u);
  EXPECT_EQ(service.stats().queue_depth, 2u);

  // Same-tier arrival at a full queue cannot preempt: backpressure,
  // with the QoS estimate intact on the rejection.
  const AppId same =
      service.submit(request_for(tiny_graph("same"), "u3", 1.0, 0));
  const auto overflow = service.status(same);
  EXPECT_EQ(overflow.state, SubmissionState::kRejected);
  EXPECT_TRUE(overflow.admission.admitted);
  EXPECT_NE(overflow.error.find("backpressure"), std::string::npos);

  // Tier 2 preempts the remaining tier-0 entry, never the tier-1 one.
  const AppId high =
      service.submit(request_for(tiny_graph("high"), "u4", 1.0, 2));
  EXPECT_EQ(service.status(low_old).state, SubmissionState::kRejected);
  EXPECT_EQ(service.status(mid).state, SubmissionState::kQueued);
  EXPECT_EQ(service.status(high).state, SubmissionState::kQueued);

  service.resume();
  service.drain();
  EXPECT_EQ(service.wait(mid).state, SubmissionState::kCompleted);
  EXPECT_EQ(service.wait(high).state, SubmissionState::kCompleted);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.preempted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.rejected + stats.queued);
  EXPECT_EQ(stats.queued,
            stats.queued_then_admitted + stats.preempted + stats.shed);
  EXPECT_EQ(stats.admitted + stats.queued_then_admitted,
            stats.completed + stats.failed);
}

TEST_F(AdmissionEnv, ShedQueuedDropsEverythingBelowCutoff) {
  AppSubmissionConfig config;
  config.slots = 1;
  config.start_paused = true;
  config.max_queue = 16;
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry(), config);

  std::vector<AppId> low, mid;
  for (int i = 0; i < 3; ++i) {
    low.push_back(service.submit(
        request_for(tiny_graph("low" + std::to_string(i)),
                    "u" + std::to_string(i), 1.0, 0)));
  }
  for (int i = 0; i < 2; ++i) {
    mid.push_back(service.submit(request_for(
        tiny_graph("mid" + std::to_string(i)), "m", 1.0, 1)));
  }
  const AppId keeper =
      service.submit(request_for(tiny_graph("keep"), "k", 1.0, 5));

  EXPECT_EQ(service.shed_queued(5), 5u);
  for (const AppId app : low) {
    const auto status = service.status(app);
    EXPECT_EQ(status.state, SubmissionState::kRejected);
    EXPECT_NE(status.error.find("shed"), std::string::npos);
  }
  for (const AppId app : mid) {
    EXPECT_EQ(service.status(app).state, SubmissionState::kRejected);
  }
  EXPECT_EQ(service.status(keeper).state, SubmissionState::kQueued);
  EXPECT_EQ(service.stats().shed, 5u);
  EXPECT_EQ(service.stats().queue_depth, 1u);

  service.resume();
  service.drain();
  EXPECT_EQ(service.wait(keeper).state, SubmissionState::kCompleted);

  const auto stats = service.stats();
  EXPECT_EQ(stats.queued,
            stats.queued_then_admitted + stats.preempted + stats.shed);
  EXPECT_EQ(stats.admitted + stats.queued_then_admitted,
            stats.completed + stats.failed);
}

TEST_F(AdmissionEnv, WaiterWakesWhenItsQueuedSubmissionIsPreemptedOrShed) {
  // A waiter sleeps until its own submission is terminal: preemption
  // and shedding must wake it as a finished run does, and drain() must
  // hear a shed that empties the queue.  Every wait is bounded, so a
  // lost wake-up fails the test instead of hanging it.
  AppSubmissionConfig config;
  config.slots = 1;
  config.start_paused = true;
  config.max_queue = 2;
  auto owned = std::make_unique<AppSubmissionService>(
      SiteId(0), directory_, tasklib::builtin_registry(), config);
  AppSubmissionService& service = *owned;
  std::vector<std::thread> blocked;
  const auto in_background = [&blocked](auto call) {
    std::packaged_task<decltype(call())()> task(std::move(call));
    auto done = task.get_future();
    blocked.emplace_back(std::move(task));
    return done;
  };
  const auto settle = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  constexpr auto kBound = std::chrono::seconds(2);

  const AppId older =
      service.submit(request_for(tiny_graph("older"), "u0", 1.0, 0));
  const AppId younger =
      service.submit(request_for(tiny_graph("younger"), "u1", 1.0, 0));
  auto preempted =
      in_background([&service, younger] { return service.wait(younger); });
  settle();  // blocked in wait() on a queued submission
  (void)service.submit(request_for(tiny_graph("high"), "u2", 1.0, 1));
  const bool preempted_woke =
      preempted.wait_for(kBound) == std::future_status::ready;
  EXPECT_TRUE(preempted_woke) << "preemption left its waiter asleep";

  auto shed = in_background([&service, older] { return service.wait(older); });
  auto drained = in_background([&service] { service.drain(); });
  settle();
  EXPECT_EQ(service.shed_queued(2), 2u);  // "older" and "high"
  const bool shed_woke = shed.wait_for(kBound) == std::future_status::ready;
  EXPECT_TRUE(shed_woke) << "shed_queued left its waiter asleep";
  const bool drain_woke =
      drained.wait_for(kBound) == std::future_status::ready;
  EXPECT_TRUE(drain_woke) << "a shed that emptied the queue left drain()";

  if (preempted_woke) {
    EXPECT_EQ(preempted.get().state, SubmissionState::kRejected);
  }
  if (shed_woke) {
    const SubmissionStatus status = shed.get();
    EXPECT_EQ(status.state, SubmissionState::kRejected);
    EXPECT_NE(status.error.find("shed"), std::string::npos);
  }
  const bool all_woke = preempted_woke && shed_woke && drain_woke;
  for (std::thread& t : blocked) {
    if (all_woke) {
      t.join();
    } else {
      t.detach();
    }
  }
  // A waiter still asleep uses the service: leak it rather than hang.
  if (!all_woke) (void)owned.release();
}

// -------------------------------------------- service: batched submit

TEST_F(AdmissionEnv, SubmitBatchMatchesSequentialSubmits) {
  // The burst API must be observably identical to a submit() loop:
  // same outcomes, same estimates, same grant order, same counters.
  // It opens with tiny, c3i and fourier graphs under alternating
  // generous and tight deadlines, so the burst mixes admissions (which
  // charge the hosts later members share) and QoS rejections (which
  // must not).
  std::vector<afg::FlowGraph> mix;
  mix.push_back(tiny_graph("q0"));
  mix.push_back(sim::make_c3i_graph(0.25));
  mix.push_back(tiny_graph("q1"));
  mix.push_back(sim::make_fourier_graph(0.25));
  mix.push_back(tiny_graph("q2"));
  std::vector<double> idle;
  sched::SiteScheduler scheduler(SiteId(0), directory_);
  for (const afg::FlowGraph& graph : mix) {
    idle.push_back(sched::predicted_makespan(
        graph, scheduler.schedule(graph), directory_));
  }

  const auto make_requests = [&] {
    std::vector<SubmissionRequest> requests;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      requests.push_back(request_for(
          mix[i], "mix" + std::to_string(i % 2), 1.0, 0,
          (i % 2 == 0) ? 50.0 * idle[i] : 1.2 * idle[i]));
    }
    for (int i = 0; i < 3; ++i) {
      requests.push_back(request_for(
          tiny_graph("ok" + std::to_string(i)),
          "user" + std::to_string(i % 2), 1.0 + i % 2, 0));
    }
    // One impossible deadline (QoS reject, takes no queue slot) ...
    auto tight = request_for(tiny_graph("tight"), "user9", 1.0, 0);
    tight.qos.deadline_s = 1e-12;
    requests.push_back(std::move(tight));
    // ... then two more: one queued (slot freed by the QoS reject),
    // one backpressured.
    for (int i = 0; i < 2; ++i) {
      requests.push_back(request_for(
          tiny_graph("tail" + std::to_string(i)), "user0", 1.0, 0));
    }
    return requests;
  };

  AppSubmissionConfig config;
  config.slots = 1;
  config.start_paused = true;
  config.max_queue = 8;
  AppSubmissionService loop_service(SiteId(0), directory_,
                                    tasklib::builtin_registry(), config);
  AppSubmissionService batch_service(SiteId(0), directory_,
                                     tasklib::builtin_registry(), config);

  std::vector<AppId> loop_apps;
  for (auto& request : make_requests()) {
    loop_apps.push_back(loop_service.submit(std::move(request)));
  }
  const std::vector<AppId> batch_apps =
      batch_service.submit_batch(make_requests());
  ASSERT_EQ(loop_apps.size(), batch_apps.size());

  for (std::size_t i = 0; i < loop_apps.size(); ++i) {
    const auto a = loop_service.status(loop_apps[i]);
    const auto b = batch_service.status(batch_apps[i]);
    EXPECT_EQ(a.state, b.state) << "request " << i;
    EXPECT_EQ(a.admission.admitted, b.admission.admitted);
    EXPECT_NEAR(a.admission.predicted_makespan_s,
                b.admission.predicted_makespan_s, 1e-9);
    EXPECT_NEAR(a.queue_eta_s, b.queue_eta_s, 1e-9);
    EXPECT_EQ(a.error, b.error);
  }
  // The scenario really charges within the burst: the c3i graph's
  // estimate includes the tiny graph admitted before it, the tight
  // fourier graph is refused, and the tail fills the queue exactly.
  const auto status_of = [&](std::size_t i) {
    return loop_service.status(loop_apps[i]);
  };
  EXPECT_GT(status_of(1).admission.predicted_makespan_s, idle[1]);
  EXPECT_EQ(status_of(1).state, SubmissionState::kQueued);
  EXPECT_FALSE(status_of(3).admission.admitted);
  EXPECT_EQ(status_of(loop_apps.size() - 2).state, SubmissionState::kQueued);
  EXPECT_NE(status_of(loop_apps.size() - 1).error.find("backpressure"),
            std::string::npos);

  loop_service.resume();
  batch_service.resume();
  loop_service.drain();
  batch_service.drain();
  for (std::size_t i = 0; i < loop_apps.size(); ++i) {
    EXPECT_EQ(loop_service.status(loop_apps[i]).grant_index,
              batch_service.status(batch_apps[i]).grant_index)
        << "request " << i;
  }
  const auto a = loop_service.stats();
  const auto b = batch_service.stats();
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.queued, b.queued);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.queued_then_admitted, b.queued_then_admitted);
}

// --------------------------------------- service: record retirement

TEST_F(AdmissionEnv, TerminalRecordsRetireIntoStubs) {
  AppSubmissionConfig config;
  config.slots = 1;
  config.terminal_record_cap = 4;
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry(), config);

  std::vector<AppId> apps;
  for (int i = 0; i < 10; ++i) {
    const AppId app = service.submit(
        request_for(tiny_graph("r" + std::to_string(i)), "ruth"));
    ASSERT_EQ(service.wait(app).state, SubmissionState::kCompleted);
    apps.push_back(app);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.retired, 6u);
  EXPECT_EQ(stats.records_retained, 4u);

  // Retired submissions still answer status()/wait() from the stub:
  // terminal state, grant order and restart count survive; the heavy
  // allocation/result payloads do not.
  const auto oldest = service.status(apps[0]);
  EXPECT_TRUE(oldest.retired);
  EXPECT_EQ(oldest.state, SubmissionState::kCompleted);
  EXPECT_EQ(oldest.grant_index, 1u);
  EXPECT_TRUE(oldest.result.records.empty());
  EXPECT_EQ(service.wait(apps[0]).grant_index, 1u);

  const auto newest = service.status(apps[9]);
  EXPECT_FALSE(newest.retired);
  EXPECT_EQ(newest.result.records.size(), 2u);
}

TEST_F(AdmissionEnv, RetiredStubCapForgetsTheOldest) {
  AppSubmissionConfig config;
  config.slots = 1;
  config.terminal_record_cap = 2;
  config.retired_stub_cap = 3;
  AppSubmissionService service(SiteId(0), directory_,
                               tasklib::builtin_registry(), config);

  std::vector<AppId> apps;
  for (int i = 0; i < 10; ++i) {
    const AppId app = service.submit(
        request_for(tiny_graph("s" + std::to_string(i)), "sam"));
    ASSERT_EQ(service.wait(app).state, SubmissionState::kCompleted);
    apps.push_back(app);
  }

  // Retirement order is completion order: apps 0..7 retired, stubs
  // keep only the 3 most recent of those, and the oldest are gone.
  EXPECT_EQ(service.stats().retired, 8u);
  EXPECT_THROW((void)service.status(apps[0]), common::NotFoundError);
  EXPECT_THROW((void)service.wait(apps[2]), common::NotFoundError);
  EXPECT_TRUE(service.status(apps[5]).retired);
  EXPECT_TRUE(service.status(apps[7]).retired);
  EXPECT_FALSE(service.status(apps[9]).retired);
}

}  // namespace
}  // namespace vdce::rt
