// C3I surveillance pipeline: the "C3I (command, control, communication,
// and information) applications" library in action.
//
// A synthetic air-surveillance scenario flows through the canonical C3I
// chain (sensor ingest -> detection -> tracking -> threat ranking ->
// display), scheduled by VDCE and executed by the runtime.  Also
// demonstrates the console service (suspend/resume) and the I/O service
// (writing the threat report via file I/O).
#include <chrono>
#include <iostream>
#include <thread>

#include "common/log.hpp"
#include "runtime/engine.hpp"
#include "runtime/site_stack.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "viz/gantt.hpp"

int main() {
  using namespace vdce;

  rt::LocalVdce vdce(netsim::make_campus_testbed(/*seed=*/11));
  vdce.warm_up(10.0);
  const auto& registry = tasklib::builtin_registry();

  // The pipeline, at 2x scenario scale (32 sensor scans).
  const afg::FlowGraph graph = sim::make_c3i_graph(/*scenario_scale=*/2.0);
  std::cout << "application '" << graph.name() << "' ("
            << graph.task_count() << " stages)\n";

  sched::SiteScheduler scheduler(vdce.sites[0].manager->site(),
                                 vdce.directory);
  const auto allocation = scheduler.schedule(graph);
  for (const auto& row : allocation.rows()) {
    std::cout << "  " << row.task_label << " -> "
              << vdce.testbed.host_spec(row.primary_host()).name << "\n";
  }

  // Console service: suspend before starting, resume from a "console"
  // thread — the user's suspend/restart capability.
  dm::ConsoleService console;
  console.suspend();
  std::jthread operator_console([&console] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::cout << "[console] resuming application\n";
    console.resume();
  });

  rt::ExecutionEngine engine(registry);
  const auto result = engine.execute(graph, allocation,
                                     vdce.sites[0].manager.get(), &console);

  std::cout << "\n" << viz::render_run_table(result);

  // Inspect the pipeline products.
  const auto track_task = graph.find_by_label("track");
  const auto rank_task = graph.find_by_label("rank");
  const auto display_task = graph.find_by_label("display");
  const auto tracks = result.outputs.at(*track_task).as_tracks();
  const auto threats = result.outputs.at(*rank_task).as_threats();

  std::cout << "\ntracker holds " << tracks.size() << " tracks; top threats:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(3, threats.size()); ++i) {
    std::cout << "  track " << threats[i].track_id << " score "
              << threats[i].score << "\n";
  }
  std::cout << "display feed: " << result.outputs.at(*display_task).as_text()
            << "\n";

  // I/O service: persist the threat report, read it back via url: I/O.
  dm::IoService io("/tmp");
  io.write_output("/tmp/threats.bin", result.outputs.at(*rank_task));
  const auto reread = io.read_input("url:threats.bin").as_threats();
  std::cout << "threat report round-tripped through the I/O service: "
            << reread.size() << " entries\n";
  return 0;
}
