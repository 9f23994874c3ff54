// The seam the traced run decorates from outside the program: a copy of
// the task registry whose functions are timed, so compute time is
// measured where it happens without touching the library.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tasklib/registry.hpp"

namespace vdce::perfbench {

/// Busy time of the wrapped task functions, per library task.
class ComputeTally {
 public:
  ComputeTally() = default;
  ComputeTally(const ComputeTally&) = delete;
  ComputeTally& operator=(const ComputeTally&) = delete;

  /// Registers a library task name; returns its slot.
  std::size_t slot(const std::string& name);
  void add(std::size_t slot, double seconds);
  /// Zeroes every slot (the start of a measured window).
  void reset();
  [[nodiscard]] double busy_s(const std::string& name) const;
  [[nodiscard]] double total_s() const;
  /// Stable C string of a slot's name (for span records).
  [[nodiscard]] const char* name(std::size_t slot) const;

 private:
  struct Slot {
    std::string name;
    std::atomic<std::uint64_t> ns{0};
  };
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// Called after every wrapped task function with the seed of the Rng
/// the engine handed it (see rng_seed), the tally slot, and the call's
/// start and end.
using TaskCallHook = std::function<void(std::uint64_t rng_seed,
                                        std::size_t slot, double start_s,
                                        double end_s)>;

/// A copy of the builtin registry whose every function is timed into
/// `tally` and reported to `on_call` (when set).
[[nodiscard]] tasklib::TaskRegistry timed_registry(ComputeTally& tally,
                                                   TaskCallHook on_call);

/// The seed `rng` was constructed from, provided nothing has drawn from
/// it yet.  Both engines seed each task function's Rng with a
/// documented per-task value (batch: seed ^ (app << 32) ^ task; stream:
/// stream_frame_seed(seed, k) ^ (app << 32) ^ task), and Rng derives
/// its state with SplitMix64, whose steps are all invertible: one draw
/// from a copy recovers the seed, which names the op and the task.
[[nodiscard]] std::uint64_t rng_seed(const common::Rng& rng);

/// Multiplicative inverse of an odd number modulo 2^64.
[[nodiscard]] std::uint64_t inverse_odd(std::uint64_t a);

}  // namespace vdce::perfbench
