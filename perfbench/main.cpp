// vdce_perfbench: one end-to-end benchmark run of one workload.
//
//   vdce_perfbench --workload batch_inproc|batch_daemon_tcp|stream_pipeline
//                  --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Prints notes (checks, diagnostics, and in a traced run the layer
// decomposition and tracing overhead), then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones.  See README.md in this directory.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "common/log.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: vdce_perfbench --workload "
               "batch_inproc|batch_daemon_tcp|stream_pipeline --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdce::perfbench;
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value != "0";
      } else if (arg == "--spans") {
        options.spans_path = value;
      } else {
        usage();
      }
    }
  } catch (const std::exception&) {
    usage();  // a number that does not parse
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) usage();
  vdce::common::set_log_level(vdce::common::LogLevel::kWarn);

  Report report;
  try {
    if (options.workload == "batch_inproc") {
      report = run_batch(options, /*daemon_mode=*/false);
    } else if (options.workload == "batch_daemon_tcp") {
      report = run_batch(options, /*daemon_mode=*/true);
    } else if (options.workload == "stream_pipeline") {
      report = run_stream(options);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "vdce_perfbench: " << e.what() << "\n";
    return 1;
  }

  if (options.trace) {
    for (const MetricName& m : kLayerMetrics) {
      if (report.metrics.count(m.name) == 0) report.set(m.name, 0.0, m.unit);
    }
  }
  for (const std::string& note : report.notes) std::cout << note << "\n";
  for (const std::string& problem : report.problems) {
    std::cout << "CHECK FAILED: " << problem << "\n";
  }
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    // Names and units are fixed identifiers: nothing to escape.
    std::cout << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
              << fmt(metric.value) << ", \"unit\": \"" << metric.unit
              << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
