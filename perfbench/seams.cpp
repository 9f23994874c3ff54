#include "seams.hpp"

#include <bit>

#include "bench.hpp"
#include "common/error.hpp"

namespace vdce::perfbench {

std::size_t ComputeTally::slot(const std::string& name) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i]->name == name) return i;
  }
  auto s = std::make_unique<Slot>();
  s->name = name;
  slots_.push_back(std::move(s));
  return slots_.size() - 1;
}

void ComputeTally::add(std::size_t slot, double seconds) {
  slots_[slot]->ns.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                             std::memory_order_relaxed);
}

void ComputeTally::reset() {
  for (auto& s : slots_) s->ns.store(0, std::memory_order_relaxed);
}

double ComputeTally::busy_s(const std::string& name) const {
  for (const auto& s : slots_) {
    if (s->name == name) return static_cast<double>(s->ns.load()) * 1e-9;
  }
  return 0.0;
}

double ComputeTally::total_s() const {
  double total = 0.0;
  for (const auto& s : slots_) {
    total += static_cast<double>(s->ns.load()) * 1e-9;
  }
  return total;
}

const char* ComputeTally::name(std::size_t slot) const {
  return slots_[slot]->name.c_str();
}

tasklib::TaskRegistry timed_registry(ComputeTally& tally,
                                     TaskCallHook on_call) {
  if (rng_seed(common::Rng(0x1234ABCDull)) != 0x1234ABCDull) {
    throw common::StateError("rng_seed cannot invert this Rng");
  }
  const tasklib::TaskRegistry& builtin = tasklib::builtin_registry();
  tasklib::TaskRegistry registry;
  for (const std::string& name : builtin.all_tasks()) {
    tasklib::LibraryEntry entry = builtin.get(name);
    const std::size_t slot = tally.slot(name);
    entry.fn = [inner = entry.fn, slot, &tally, on_call](
                   const std::vector<tasklib::Payload>& in,
                   const tasklib::TaskContext& ctx) {
      const std::uint64_t seed = ctx.rng != nullptr ? rng_seed(*ctx.rng) : 0;
      const double t0 = now_s();
      tasklib::Payload out = inner(in, ctx);
      const double t1 = now_s();
      tally.add(slot, t1 - t0);
      if (on_call) on_call(seed, slot, t0, t1);
      return out;
    };
    registry.add(std::move(entry));
  }
  return registry;
}

std::uint64_t inverse_odd(std::uint64_t a) {
  std::uint64_t x = a;  // Newton's iteration doubles the correct bits
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

namespace {

/// Inverse of y = x ^ (x >> s).
std::uint64_t unxorshift(std::uint64_t y, int s) {
  std::uint64_t x = y;
  for (int i = 0; i * s < 64; ++i) x = y ^ (x >> s);
  return x;
}

}  // namespace

std::uint64_t rng_seed(const common::Rng& rng) {
  // xoshiro256** returns rotl(s1 * 5, 7) * 9, and SplitMix64 made
  // s1 = finalise(seed + 2 * golden).  Undo both.
  common::Rng copy = rng;
  const std::uint64_t draw = copy();
  std::uint64_t z = std::rotr(draw * inverse_odd(9), 7) * inverse_odd(5);
  z = unxorshift(z, 31);
  z *= inverse_odd(0x94D049BB133111EBull);
  z = unxorshift(z, 27);
  z *= inverse_odd(0xBF58476D1CE4E5B9ull);
  z = unxorshift(z, 30);
  return z - 2 * 0x9E3779B97F4A7C15ull;
}

}  // namespace vdce::perfbench
