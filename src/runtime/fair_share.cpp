#include "runtime/fair_share.hpp"

#include <algorithm>
#include <limits>

namespace vdce::rt {

namespace {

constexpr double kMinWeight = 1e-9;

}  // namespace

void FairShareQueue::sweep_idle() {
  // Overtaken idle users: pass <= grant clock.  Forgetting them makes
  // a return join at the clock, which is what keeps an absence from
  // banking wins.  Over the cap, drop the least-indebted idle users
  // too (the small forgiven debt is bounded by one stride; active
  // users are never evicted).
  while (!idle_.empty() && (idle_.begin()->first <= grant_pass_ ||
                            shares_.size() > kMaxShares)) {
    shares_.erase(idle_.begin()->second);
    idle_.erase(idle_.begin());
    ++shares_evicted_;
  }
}

void FairShareQueue::file_share(const std::string& user, const Share& share) {
  if (share.fifo.empty()) {
    idle_.emplace(share.pass, user);
  } else {
    order_.emplace(std::make_pair(share.pass, share.fifo.begin()->first),
                   user);
  }
}

void FairShareQueue::push(const std::string& user, FairShareEntry entry) {
  auto [it, inserted] = shares_.try_emplace(user);
  Share& share = it->second;
  if (inserted) {
    // New users join the race at the grant clock, not at zero.
    share.pass = grant_pass_;
  } else if (share.fifo.empty()) {
    // Returning user.  Its pass is not behind the grant clock: every
    // push and pop sweeps out the idle users the clock has overtaken,
    // and a swept user re-joins at the clock above, so an absence never
    // banks a backlog of wins (the starvation bug).
    idle_.erase({share.pass, user});
  }
  const bool was_empty = share.fifo.empty();
  const std::uint64_t old_head = was_empty ? 0 : share.fifo.begin()->first;
  share.fifo.emplace(entry.seq, entry);
  const std::uint64_t new_head = share.fifo.begin()->first;
  if (was_empty) {
    order_.emplace(std::make_pair(share.pass, new_head), user);
  } else if (new_head != old_head) {
    order_.erase({share.pass, old_head});
    order_.emplace(std::make_pair(share.pass, new_head), user);
  }
  if (entry.preemptible) {
    prio_.emplace(std::make_pair(entry.priority, entry.seq), user);
  }
  ++size_;
  sweep_idle();
}

std::optional<FairShareEntry> FairShareQueue::pop() {
  if (order_.empty()) return std::nullopt;
  const auto order_it = order_.begin();
  const std::string user = order_it->second;
  order_.erase(order_it);
  Share& share = shares_.at(user);
  const auto fifo_it = share.fifo.begin();
  const FairShareEntry entry = fifo_it->second;
  share.fifo.erase(fifo_it);
  if (entry.preemptible) prio_.erase({entry.priority, entry.seq});
  // The grant clock is the winner's pass before the stride advance:
  // newcomers join where the race currently is.
  grant_pass_ = share.pass;
  share.pass += 1.0 / std::max(entry.weight, kMinWeight);
  file_share(user, share);
  --size_;
  sweep_idle();
  maybe_renormalize();
  return entry;
}

FairShareEntry FairShareQueue::remove_entry(const std::string& user,
                                            std::uint64_t seq) {
  Share& share = shares_.at(user);
  const auto fifo_it = share.fifo.find(seq);
  const bool was_head = fifo_it == share.fifo.begin();
  const FairShareEntry entry = fifo_it->second;
  share.fifo.erase(fifo_it);
  if (entry.preemptible) prio_.erase({entry.priority, entry.seq});
  if (was_head) {
    order_.erase({share.pass, seq});
    file_share(user, share);
  }
  --size_;
  return entry;
}

std::optional<FairShareEntry> FairShareQueue::preempt_below(int priority) {
  if (prio_.empty() || prio_.begin()->first.first >= priority) {
    return std::nullopt;
  }
  // Victim: lowest priority tier, youngest submission within it (the
  // entry that has waited least loses first).
  const int tier = prio_.begin()->first.first;
  auto it =
      prio_.upper_bound({tier, std::numeric_limits<std::uint64_t>::max()});
  --it;
  const auto [key, user] = *it;
  return remove_entry(user, key.second);
}

std::vector<FairShareEntry> FairShareQueue::shed_below(int priority) {
  std::vector<FairShareEntry> shed;
  while (!prio_.empty() && prio_.begin()->first.first < priority) {
    const auto [key, user] = *prio_.begin();
    shed.push_back(remove_entry(user, key.second));
  }
  std::sort(shed.begin(), shed.end(),
            [](const FairShareEntry& a, const FairShareEntry& b) {
              return a.seq < b.seq;
            });
  return shed;
}

FairShareStats FairShareQueue::stats() const {
  FairShareStats out;
  out.queued = size_;
  out.users = shares_.size();
  out.renormalizations = renormalizations_;
  out.shares_evicted = shares_evicted_;
  return out;
}

void FairShareQueue::maybe_renormalize() {
  // Subtracting the same base from every pass (and the clock) leaves
  // every pairwise comparison unchanged; what it restores is the
  // precision of the next += 1/weight, which a clock past 2^53/weight
  // would silently swallow.
  const double base = grant_pass_;
  if (base < kRenormThreshold) return;
  order_.clear();
  idle_.clear();
  for (auto& [user, share] : shares_) {
    share.pass = std::max(0.0, share.pass - base);
    file_share(user, share);
  }
  grant_pass_ = 0.0;
  ++renormalizations_;
}

}  // namespace vdce::rt
