// Shared reporting helpers for the experiment benches (the site stack
// itself comes from rt::LocalVdce, runtime/site_stack.hpp).
//
// Every bench prints labelled CSV-style rows (the "table" the paper
// would have contained) plus a short interpretation, so EXPERIMENTS.md
// can cite the output verbatim.
#pragma once

#include <iostream>
#include <string>

namespace vdce::bench {

/// Prints an experiment banner.
inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/// Prints a CSV header row.
inline void header(const std::string& columns) {
  std::cout << columns << "\n";
}

}  // namespace vdce::bench
